(** The Wasabi runtime: provides the imported low-level hook functions and
    dispatches them to the high-level analysis API, re-joining split i64
    halves, attaching pre-computed static information (resolved branch
    targets, [br_table] entries) and resolving indirect call targets
    through the instance's table.

    Each monomorphized hook spec is compiled once, at runtime-binding
    time, into a specialized decoder closure that reads its arguments
    straight off the interpreter's operand stack (zero per-call list
    allocation, no map lookups); the original interpretive list-based
    decoder is kept as a debug/reference path, selected with
    [~decoder:`Reference]. Both paths produce identical high-level hook
    invocations. *)

type decoder_kind = [ `Compiled | `Reference ]

type t = {
  metadata : Metadata.t;
  analysis : Analysis.t;
  decoder : decoder_kind;
  br_index : Metadata.br_table_index;
      (** O(1) per-location [br_table] metadata, built once at creation *)
  mutable instance : Wasm.Interp.instance option;
  mutable indirect_cache : int array;
      (** per-table-slot resolution of indirect call targets, filled
          lazily (MVP tables are immutable after instantiation) *)
  mutable prof : Obs.Profile.t option;
      (** when set, every hook dispatch is counted and timed under
          ["hook.<group>"], plus the ["dispatch.decode"] /
          ["dispatch.analysis"] marshalling-vs-analysis split *)
  mark : int64 ref;
      (** first analysis-callback entry time of the current profiled
          dispatch, or [-1L] *)
  marked_analysis : Analysis.t;
      (** the analysis with mark-recording callback wrappers, dispatched
          to only while a profiler is attached *)
}

exception Bad_hook_args of Wasm.Error.t
(** A low-level hook received arguments inconsistent with its spec — an
    internal error of the instrumentation. Rebinding of
    {!Wasm.Error.Hook_error} (phase [Run], code ["bad-hook-args"],
    CLI exit code 9). *)

val create : ?decoder:decoder_kind -> Instrument.result -> Analysis.t -> t
(** [decoder] defaults to [`Compiled]. *)

val attach_profiler : t -> Obs.Profile.t option -> unit
(** Attach (or detach) a profiler to both the runtime (hook-dispatch
    timing) and the instrumented instance, when one is present. *)

val imports : t -> Wasm.Interp.imports
(** Host functions implementing every generated low-level hook. *)

val instantiate :
  ?fuel:int ->
  ?decoder:decoder_kind ->
  ?wrap_host:(Wasm.Interp.host_func -> Wasm.Interp.host_func) ->
  ?extra_imports:Wasm.Interp.imports ->
  Instrument.result ->
  Analysis.t ->
  Wasm.Interp.instance * t
(** Instantiate an instrumented module with the analysis attached;
    [extra_imports] supplies the program's own imports. Hook imports are
    resolved positionally through the runtime's dispatch table (the
    instrumenter appends them after the original imports in ordinal
    order); everything else goes through the name-keyed import list.
    [wrap_host] interposes on every bound host function (hooks and
    [Host_func] extra imports) — the fault-injection seam. *)

val fork : t -> Analysis.t -> Wasm.Interp.instance * t
(** Fork an instantiated runtime: a copy-on-write clone of its instance
    ([Wasm.Interp.fork]) paired with a fresh runtime owning its own hook
    host functions, analysis binding and indirect-call cache, sharing the
    immutable per-module work (metadata, [br_table] index, hook specs).
    Hook imports in the forked instance are rebound to the new runtime,
    so its events dispatch to [analysis]. The
    fork starts de-tiered; run [Wasm.Tier1.compile_all] on it for
    tier-1. This is the serve farm's per-worker setup step.
    @raise Invalid_argument if [t] was never instantiated. *)

(** The engine-probe observability backend: run an analysis on an
    {e uninstrumented} module by patching event closures directly into
    the engine's pre-decoded instruction streams. No binary rewrite, no
    i64 splitting, no argument marshalling — closures peek operands off
    the live operand stack and call the same {!Analysis.t} callbacks
    the AOT path dispatches to, with the exact same event placement and
    payloads (held to the AOT stream by the probe-parity fuzz oracle).

    Probes attach and detach while the instance runs: attach takes
    effect at the next entry of each affected function (and deopts its
    tier-1 closure); detach silences events immediately and lets bodies
    re-tier. Specs select sites Whamm-style:
    ["GROUPS\[@func=N\]\[@loc=F:I\]\[@nth=K\]"] — comma-separated hook
    groups (or ["all"]), optional per-function / per-site filters, and
    a fire-every-kth-match count predicate. *)
module Probe : sig
  type controller

  val create :
    ?registry:Obs.Metrics.registry ->
    Wasm.Interp.instance ->
    Analysis.t ->
    controller
  (** Create a probe controller for an instance of the {e original}
      (uninstrumented) module, and register its capture/detach view on
      the instance so {!Wasm.Snapshot} restores the probe set
      explicitly. No probes are attached yet. *)

  val attach : controller -> Obs.Probe.spec -> Obs.Probe.entry
  (** Attach a probe and rebuild the probed bodies it matches. Counted
      by [wasabi_probe_attached_total]; spans a [probe.attach] phase. *)

  val attach_spec : controller -> string -> (Obs.Probe.entry, string) result
  (** [attach] from concrete spec syntax, validating hook-group names. *)

  val validate_spec : string -> (Obs.Probe.spec, string) result

  val detach : controller -> Obs.Probe.entry -> unit
  (** Stop the probe firing immediately and re-derive probed bodies;
      functions left without matching probes return to tiered
      execution. Idempotent. *)

  val detach_all : controller -> unit

  val attach_at : controller -> step:int -> Obs.Probe.spec -> unit
  (** Attach once the instance's step counter first reaches [step]
      (checked at batch-charge boundaries on every tier, immediate when
      already past) — the [--probe-at step=N] trigger. *)

  val detach_at : controller -> step:int -> Obs.Probe.entry -> unit

  val attach_profiler : controller -> Obs.Profile.t option -> unit
  (** Attach (or detach) a profiler to probe dispatch and the instance.
      Probe dispatch time splits into ["hook.<group>"],
      ["dispatch.probe"] (gate + operand capture before the analysis
      callback) and ["dispatch.analysis"]. *)

  val entries : controller -> Obs.Probe.entry list
  (** Currently attached (active) probes. *)

  val all_entries : controller -> Obs.Probe.entry list
  (** Every probe ever attached, including detached ones (for
      [--stats]). *)

  val manager : controller -> Obs.Probe.t
end
