(** The eight fuzzing oracles: totality, round-trip, differential
    equivalence (paper, Section 4.2's observational-equivalence claim,
    turned into an executable property), static instrumentation
    soundness via {!Lint.check}, tier parity (tier-0 dispatch loop
    vs the {!Wasm.Tier1} closure compiler), restore equivalence
    (fault containment: snapshot → seeded host faults → restore →
    clean run ≡ fresh instance), static over-approximation
    soundness (every dynamically observed indirect-call target, branch
    outcome, operand and global value must be contained in the
    {!Static.Absint} fact, and [~fold]-instrumented execution must be
    event-for-event identical to the unfolded one), and probe parity
    (the engine-probe backend must deliver the same hook-event stream
    as the AOT rewriter, including under mid-run attach/detach and
    tier-1 deopt). *)

type verdict =
  | Pass
  | Skip of string  (** oracle not applicable to this case *)
  | Violation of { kind : string; detail : string }

val base_fuel : int
(** Interpreter fuel for uninstrumented runs. *)

val hook_fuel_scale : int
(** Fuel multiplier for instrumented runs (hook calls cost fuel too). *)

(** {1 Totality}

    Feeding any byte string through decode (and, when it decodes,
    validate / instantiate / execute) may only raise the structured
    taxonomy exceptions; any other escape is returned as [Error crash]
    with the exception text (and backtrace when recorded). *)

val decode_total : string -> (Wasm.Ast.module_ option, string) result
(** [Ok (Some m)] decoded, [Ok None] rejected inside the taxonomy. *)

val validate_total : Wasm.Ast.module_ -> (bool, string) result
(** [Ok true] valid, [Ok false] rejected inside the taxonomy. *)

(** {1 Round-trip} *)

val round_trip_generated : Wasm.Ast.module_ -> verdict
(** [decode (encode m)] must equal [m] structurally (the generator emits
    no NaN constants, so [=] is exact). *)

val round_trip_bytes : Wasm.Ast.module_ -> verdict
(** Byte idempotence for a decoded-from-mutation module: encode, decode,
    encode again must reproduce the first encoding. *)

(** {1 Execution} *)

type run_result = {
  outcome : (Wasm.Value.t list, Wasm.Error.t) result;
  mem_digest : string option;  (** MD5 of final memory, when exported *)
  globals : (string * Wasm.Value.t) list;  (** exported globals, post-run *)
}

val differential : Gen.info -> verdict
(** Execute the module uninstrumented and instrumented (all hook groups,
    the no-op analysis): result values, trap identity, final memory and
    exported globals must agree. [Skip] when the base run exhausts its
    fuel (the two executions are then cut off at incomparable points). *)

val tier_differential : Gen.info -> verdict
(** Execute the module on tier 0 and with the tier-1 compiler forced on
    (threshold 1), at identical fuel: result values, trap identity,
    final memory and exported globals must agree. Tier 1 charges fuel
    at exactly tier 0's boundaries, so out-of-fuel cases are compared,
    never skipped. *)

val restore_equivalence : seed:int -> index:int -> Gen.info -> verdict
(** The fault-containment oracle: instantiate instrumented, snapshot the
    pristine state, run under the deterministic host-fault plan for
    [(seed, index)] ({!Faults.plan}) with a governor attached, restore,
    run clean — outcome, memory digest and exported globals must match a
    run on a fresh instance at the same fuel. Every odd [index] runs on
    tier 0; every even one forces the tier-1 compiler on (threshold 1)
    with deopt-on-fault enabled, exercising compiled-body unwinding.
    A plain screening run bounds the instrumented fuel: 34 × its steps
    when it terminates, [base_fuel × 34] when it does not, and at most
    [base_fuel × hook_fuel_scale]. *)

val lint_instrumented : Wasm.Ast.module_ -> verdict
(** Instrument the module — once fully, once with call-graph-driven
    selective pruning, once with static hook folding on top — and run
    the static soundness lint over each result; any [Error]-severity
    finding is a violation. *)

val absint_soundness : Gen.info -> verdict
(** The static over-approximation soundness oracle. Runs the module
    instrumented with an observing analysis and asserts every observed
    indirect-call target and table index, branch condition, [br_table]
    index, binary operand and global value is contained in the
    corresponding {!Static.Absint} fact (and that no hook fires at a
    statically-dead site); then re-runs with [~fold] instrumentation
    and requires an identical hook-event stream, outcome, final memory
    and exported globals. [Skip] when the base run exhausts its fuel or
    an instrumented run does. *)

val probe_parity : ?seed:int -> index:int -> Gen.info -> verdict
(** The engine-probe vs AOT-rewrite differential. Runs the module
    plain, AOT-instrumented with a recording analysis, and with engine
    probes delivering to the same recording analysis. The probed run's
    outcome, final memory and exported globals must equal the plain
    run's; the probe event stream must be byte-identical to the AOT
    stream when all groups are attached for the whole run, and an
    order-preserving subsequence of it under mid-run attach/detach.
    [index mod 4] selects the variant: full attach on tier 0, full
    attach with the tier-1 compiler forced on (attach-deopt), tiered
    mid-run attach (step trigger at half the plain run's step count),
    mid-run detach. Every case then also runs a sparse variant: one to
    three hook groups drawn from [(seed, index)] (default [seed] 0),
    attached for the whole run, whose stream must be byte-identical to
    the AOT rewrite's for the same groups. [Skip] when the base or the
    AOT run exhausts its fuel. *)

val execution_total : Wasm.Ast.module_ -> verdict
(** Execution totality for an arbitrary valid module (mutation
    pipeline): instantiate with no imports and invoke the first nullary
    exported function; only taxonomy failures are acceptable. Modules
    declaring oversized memories/tables are skipped, not failed. *)
