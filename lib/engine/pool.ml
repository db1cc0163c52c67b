(* ---------- the process-wide worker set ---------- *)

let max_workers = 64

let mu = Mutex.create ()

let wake = Condition.create ()

let tasks : (unit -> unit) Queue.t = Queue.create ()

let workers = ref 0

(* Workers parked (or about to park) with no queued task meant for them.
   Invariant under [mu]: workers not running a task = !idle + queued
   tasks, so every queued task has a worker that will take it. *)
let idle = ref 0

(* An escaping exception is dropped so the worker survives it. A task
   leaves no span frame or fault scope behind for the next one:
   [Obs.span] and [Fault.with_scope] restore the domain's state on every
   exit. *)
let run_task task = try task () with _ -> ()

let rec park () =
  let task =
    Mutex.protect mu (fun () ->
        incr idle;
        while Queue.is_empty tasks do
          Condition.wait wake mu
        done;
        Queue.pop tasks)
  in
  run_task task;
  park ()

let try_async task =
  let claim =
    Mutex.protect mu (fun () ->
        if !idle > 0 then begin
          decr idle;
          Queue.push task tasks;
          Condition.signal wake;
          `Queued
        end
        else if !workers < max_workers then begin
          incr workers;
          `Start
        end
        else `Full)
  in
  match claim with
  | `Queued -> true
  | `Full -> false
  | `Start -> (
      match
        Domain.spawn (fun () ->
            run_task task;
            park ())
      with
      | _ -> true
      | exception Failure _ ->
          Mutex.protect mu (fun () -> decr workers);
          false)

(* ---------- map_result ---------- *)

type 'a outcome = ('a, exn * Printexc.raw_backtrace) result

type 'a slot = Empty | Done of 'a outcome

let map_result ?(fatal = fun _ -> false) ~jobs n f =
  if n = 0 then [||]
  else begin
    (* A fatal exception (interrupt, sanitizer violation) poisons the
       map: the remaining indices are drained without running jobs and
       the exception is re-raised once every helper has returned —
       prompt cancellation instead of computing a long tail first.
       Everything else is a per-job fault domain: the failure lands in
       the job's slot, sibling results are kept. *)
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
    let next = Atomic.make 0 in
    let rec drain () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        run i;
        drain ()
      end
    in
    if jobs <= 1 || n = 1 then drain ()
    else begin
      (* The caller drains alongside whatever helpers the pool can give
         right now, so a nested map made from a worker completes even
         when every worker is busy. An async fatal exception (e.g.
         Sys.Break between jobs) must still wait for the helpers and
         poison the result. *)
      let drain_guarded () =
        try drain ()
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set poison None (Some (e, bt)))
      in
      let hmu = Mutex.create () and finished = Condition.create () in
      let helpers = ref 0 in
      let helper () =
        drain_guarded ();
        Mutex.protect hmu (fun () ->
            decr helpers;
            Condition.signal finished)
      in
      let rec recruit k =
        if k > 0 then begin
          Mutex.protect hmu (fun () -> incr helpers);
          if try_async helper then recruit (k - 1)
          else Mutex.protect hmu (fun () -> decr helpers)
        end
      in
      recruit (min jobs n - 1);
      drain_guarded ();
      Mutex.protect hmu (fun () ->
          while !helpers > 0 do
            Condition.wait finished hmu
          done)
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
