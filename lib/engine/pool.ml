type queue = {
  mu : Mutex.t;
  nonempty : Condition.t;
  items : int Queue.t;
  mutable closed : bool;
}

let make () =
  {
    mu = Mutex.create ();
    nonempty = Condition.create ();
    items = Queue.create ();
    closed = false;
  }

let push q i =
  Mutex.protect q.mu (fun () ->
      Queue.push i q.items;
      Condition.signal q.nonempty)

let close q =
  Mutex.protect q.mu (fun () ->
      q.closed <- true;
      Condition.broadcast q.nonempty)

let pop q =
  Mutex.protect q.mu (fun () ->
      let rec wait () =
        match Queue.take_opt q.items with
        | Some i -> Some i
        | None ->
            if q.closed then None
            else begin
              Condition.wait q.nonempty q.mu;
              wait ()
            end
      in
      wait ())

type 'a outcome = ('a, exn * Printexc.raw_backtrace) result

type 'a slot = Empty | Done of 'a outcome

let map_result ?(fatal = fun _ -> false) ~jobs n f =
  if n = 0 then [||]
  else begin
    (* A fatal exception (interrupt, sanitizer violation) poisons the
       pool: the remaining queue is drained without running jobs and the
       exception is re-raised once every domain has parked — prompt
       cancellation instead of computing a long tail first. Everything
       else is a per-job fault domain: the failure lands in the job's
       slot, sibling results are kept. *)
    let poison : (exn * Printexc.raw_backtrace) option Atomic.t =
      Atomic.make None
    in
    let slots = Array.make n Empty in
    let run i =
      if Atomic.get poison = None then
        slots.(i) <-
          Done
            (match f i with
            | v -> Ok v
            | exception e when not (fatal e) ->
                Error (e, Printexc.get_raw_backtrace ())
            | exception e ->
                let bt = Printexc.get_raw_backtrace () in
                ignore (Atomic.compare_and_set poison None (Some (e, bt)));
                Error (e, bt))
    in
    if jobs <= 1 || n = 1 then
      for i = 0 to n - 1 do
        run i
      done
    else begin
      let q = make () in
      let worker () =
        let rec loop () =
          match pop q with
          | None -> ()
          | Some i ->
              run i;
              loop ()
        in
        loop ()
      in
      for i = 0 to n - 1 do
        push q i
      done;
      close q;
      let domains =
        Array.init (min jobs n - 1) (fun _ -> Domain.spawn worker)
      in
      (* an async fatal exception (e.g. Sys.Break between jobs) in the
         calling domain must still wait for the workers and poison the
         result, not leak running domains *)
      (match worker () with
      | () -> ()
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set poison None (Some (e, bt))));
      Array.iter Domain.join domains
    end;
    match Atomic.get poison with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        Array.map
          (function
            | Done r -> r
            | Empty -> assert false)
          slots
  end
