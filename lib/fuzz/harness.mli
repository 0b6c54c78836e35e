(** Campaign driver: deterministic fuzzing with replayable failures.

    Every case is fully determined by the campaign seed and its case
    index ({!Rng.for_case}); the generator stream and the mutation
    stream live in disjoint index spaces, so a failure report is always
    just a [(seed, index)] pair. *)

type case_kind = Generated | Mutated

val kind_name : case_kind -> string
(** ["gen"] / ["mut"], as used in replay specs and failure file names. *)

type failure = {
  case : case_kind;
  seed : int;
  index : int;
  oracle : string;  (** violation kind, e.g. "totality-decode" *)
  detail : string;
  input : string;  (** the offending binary *)
  minimized : string option;
  fault_plan : string option;
      (** rendered fault plan when the campaign ran with [~faults:true];
          the plan replays from [(seed, index)] alone *)
}

type stats = {
  mutable gen_cases : int;
  mutable mut_cases : int;
  mutable mut_decoded : int;  (** mutants that still decoded *)
  mutable mut_valid : int;  (** mutants that still validated *)
  mutable faulted : int;  (** cases run through the restore-equivalence oracle *)
  mutable skips : int;
  mutable violations : int;
}

val fresh_stats : unit -> stats

(** {1 Case construction} *)

val gen_case : seed:int -> index:int -> Gen.info
(** The generated module for a [(seed, index)] pair. Deterministic. *)

val mut_case : seed:int -> index:int -> string
(** The mutated binary for a [(seed, index)] pair: a fresh small
    generated module, encoded, then structure-aware mutated — all from
    the case's own RNG. Deterministic. *)

(** {1 Oracles per case} *)

val check_generated :
  ?metrics:Obs.Metrics.registry -> ?restore:int * int -> ?seed:int -> ?probe_index:int ->
  Gen.info -> [ `Pass | `Skip | `Fail of string * string ]
(** The generated-module pipeline — validate, round-trip, static
    instrumentation lint, differential execution, tier parity, probe
    parity, absint soundness — stopping at the first violation
    [(kind, detail)]. [?metrics] records each oracle's wall time under
    [fuzz_oracle_seconds{oracle=...}]. [?restore] supplies the case's
    [(seed, index)] and appends the restore-equivalence
    (fault-injection) oracle as the final stage. [?probe_index]
    (default 0) round-robins the probe-parity variant; the campaign
    passes the case index, and its [?seed], which with the index draws
    the groups of the sparse probe-parity variant. *)

val check_mutated :
  ?metrics:Obs.Metrics.registry ->
  string -> [ `Pass of [ `Rejected | `Decoded | `Valid ] | `Skip | `Fail of string * string ]
(** The mutated-binary pipeline: totality of decode; then, as far as the
    mutant remains meaningful, validate / round-trip / execute. The
    [`Pass] payload reports the depth reached, for corpus-quality
    statistics. *)

val minimize : string -> string option
(** Greedy ddmin-style chunk removal preserving the violation kind of
    {!check_mutated}; [None] when the input does not fail or could not
    be shrunk within the evaluation budget. *)

(** {1 The campaign} *)

val default_seed : int

val run :
  ?log:(string -> unit) -> ?out_dir:string -> ?metrics:Obs.Metrics.registry ->
  ?faults:bool -> ?jobs:int ->
  seed:int -> gen_count:int -> mut_count:int -> unit -> stats * failure list
(** Run a campaign of [gen_count] generated and [mut_count] mutated
    cases. Failures are returned in case order and, when [out_dir] is
    given, dumped there ([.wasm], minimized [.min.wasm], and a [.txt]
    replay recipe each). [?metrics] records case counters, per-oracle
    timing histograms and the campaign's cases/second. [?faults]
    (default off) runs every generated case through the
    restore-equivalence oracle under its deterministic host-fault plan;
    failure dumps then record the plan and a [--faults] replay line.
    [?jobs] (default 1) shards case indices across that many domains;
    since every case is determined by [(seed, index)] alone, the
    returned stats and failures — and the dump files — are identical
    for any job count. [log] is serialized; only the interleaving of
    progress lines differs under parallel runs. *)

(** Structured outcome of replaying one case. *)
type disposition =
  | Pass of string  (** detail, e.g. how deep a mutant survived; may be empty *)
  | Skip of string
  | Fail of { oracle : string; detail : string }

val disposition_to_string : disposition -> string

val replay : ?faults:bool -> seed:int -> index:int -> case_kind -> disposition
(** Re-run a single case. Pass [~faults:true] iff the failing campaign
    ran with fault injection: the fault plan is re-derived from the same
    [(seed, index)] pair, so the replay is byte-identical. *)

val summary : stats -> string
(** One-line campaign summary. *)
