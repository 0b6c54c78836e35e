(** The instance farm: instrument/instantiate once, serve batches of
    restore-isolated executions across OCaml 5 domains, with analysis
    callbacks running inline in the workers' hooks. Throughput is
    exported through {!Obs.Metrics}. *)

type mode = Sync
(** Exists only so that callers still passing [~mode:Sync] (the
    end-to-end benchmark in [perfbench/]) keep compiling; dispatch is
    always inline. *)

type stats = {
  st_domains : int;
  st_runs : int;
  st_faults : int;  (** runs contained by restore (trap/exhaustion/budget) *)
  st_elapsed_s : float;
  st_instances_per_sec : float;
}

val is_contained : exn -> bool
(** Faults a restore erases: traps, fuel exhaustion, governor kills,
    injected host faults. Anything else propagates out of the worker. *)

val run :
  ?tier1:bool ->
  ?make_governor:(unit -> Wasm.Governor.t) ->
  ?profile_into:Obs.Profile.t ->
  ?args:Wasm.Value.t list ->
  ?mode:mode ->
  domains:int ->
  runs:int ->
  entry:string ->
  make_analysis:(int -> Wasabi.Analysis.t) ->
  Wasabi.Instrument.result ->
  stats
(** Serve [runs] executions of the [entry] export across [domains]
    worker domains (static sharding). [make_analysis w] builds worker
    [w]'s analysis; its state is touched only by that worker's domain,
    so analyses need no locking. [make_governor] builds one governor per
    worker, re-armed before every run. [profile_into] enables
    per-worker profilers, merged into the given profile at the end.
    @raise Invalid_argument on [domains < 1] or [runs < 0]. *)
