(** Static analysis over the pipeline's artifact formats.

    The linter has its own tolerant, line-tracking scanners for the textual
    artifact formats (DIMACS CNF, QDIMACS, BLIF, ASCII AIGER): unlike the
    strict parsers in [Step_sat]/[Step_aig]/[Step_qbf], it keeps going after
    a defect and reports every finding with a stable rule code and a source
    location. In-memory structures (AIG managers, partitions) are checked
    through neutral views so this library stays below the solver stack in
    the dependency order (the CDCL sanitizer reports {!Diag.t} too).

    Rule catalogue (see docs/LINT.md for details):
    - [AIG001]–[AIG004]: AIG node-table invariants
    - [CNF001]–[CNF007]: DIMACS clause/header hygiene
    - [QDM001]–[QDM005]: QDIMACS prefix well-formedness
    - [BLF001]–[BLF003]: BLIF signal drivers
    - [AAG001]–[AAG003]: ASCII AIGER literal definitions
    - [PAR001]–[PAR003]: partition coverage and symmetry
    - [SAN001]–[SAN004]: solver sanitizer (emitted by [Step_sat.Solver])
    - [PRF001]–[PRF007]: DRAT/LRAT proof traces and certificates
      (format-level rules here; the semantic rules PRF004/PRF006/PRF007
      are emitted by the independent checker in [Step_cert])
    - [IO001]: unreadable / unrecognized artifact *)

(** {2 Textual artifacts} *)

val check_dimacs : ?file:string -> string -> Diag.t list
(** Lints DIMACS CNF text: variables beyond the [p cnf] header bound
    (CNF001), header clause-count mismatch (CNF002), duplicate literals
    (CNF003), tautological clauses (CNF004), duplicate clauses (CNF005),
    an unterminated trailing clause (CNF006), and syntax defects the
    strict parser would reject (CNF007). *)

val check_qdimacs : ?file:string -> string -> Diag.t list
(** Lints QDIMACS text: all the CNF rules on the matrix, plus free
    variables (QDM001), variables quantified twice (QDM002), empty
    quantifier blocks (QDM003), adjacent same-quantifier blocks (QDM004)
    and quantifier lines after the matrix started (QDM005). *)

val check_blif : ?file:string -> string -> Diag.t list
(** Lints BLIF text: undriven signals (BLF001), multiply-driven signals
    (BLF002), duplicate [.inputs]/[.outputs] declarations (BLF003). *)

val check_aag : ?file:string -> string -> Diag.t list
(** Lints ASCII AIGER text: malformed/truncated header or body (AAG001),
    multiply-defined variables (AAG002), references to undefined or
    out-of-range literals (AAG003). *)

val check_drat : ?file:string -> string -> Diag.t list
(** Lints textual DRAT proof traces, format level only: non-integer
    tokens or tokens after the terminating 0 (PRF001), lines without a 0
    terminator or an entirely empty proof (PRF002), and a proof that
    never adds the empty clause (PRF005). Whether each clause is actually
    RUP needs the original CNF — that semantic check lives in
    [Step_cert.Cert]. *)

val check_lrat : ?file:string -> string -> Diag.t list
(** Same for textual LRAT ([id lit* 0 hint* 0] additions, [id d id* 0]
    deletions): PRF001/PRF002 as for DRAT, plus non-increasing addition
    ids (PRF003). *)

(** {2 In-memory artifacts} *)

type aig_node =
  | Const
  | Input of int  (** input index *)
  | And of int * int  (** fanin edges, [2 * id + complement] *)

type aig_view = {
  n_nodes : int;
  node : int -> aig_node;
  roots : int list;  (** Root edges; [[]] disables the reachability check. *)
}
(** A structure-only view of an AIG manager. [Step_aig.Aig.node_kind]
    provides the [node] function; building the view at the call site keeps
    this library independent of the AIG package. *)

val check_aig : ?name:string -> aig_view -> Diag.t list
(** Checks acyclicity/topological fanin order and edge ranges (AIG001),
    structural-hash duplicates (AIG002), AND nodes unreachable from the
    roots (AIG003), and missed constant folding or unnormalized fanin
    order (AIG004). [name] labels the artifact in locations. *)

val check_partition :
  ?name:string ->
  support:int list ->
  xa:int list -> xb:int list -> xc:int list ->
  unit -> Diag.t list
(** Checks XA/XB/XC pairwise disjointness (PAR001), exact coverage of
    [support] (PAR002), and the paper's symmetry normalization
    [|XA| >= |XB|] (PAR003, warning). *)

(** {2 File dispatch} *)

type kind = Cnf | Qdimacs | Blif | Aag | Drat | Lrat

val kind_of_path : string -> kind option
(** [.cnf]/[.dimacs], [.qdimacs]/[.qdm], [.blif], [.aag], [.drat],
    [.lrat]. Binary [.aig] is handled by the CLI (it needs the AIG
    reader). *)

val lint_file : ?kind:kind -> string -> Diag.t list
(** Reads and lints one artifact file, dispatching on the extension unless
    [kind] forces one. Unreadable files and unknown extensions yield a
    single IO001 error rather than an exception. *)
