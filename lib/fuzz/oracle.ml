(** The eight fuzzing oracles: totality, round-trip, differential
    equivalence (paper, Section 4.2's observational-equivalence claim,
    turned into an executable property), static instrumentation
    soundness, tier parity (tier-0 dispatch loop vs the tier-1
    closure compiler), restore equivalence (fault containment),
    static over-approximation soundness (abstract-interpretation facts
    vs observed execution, plus folded-instrumentation equivalence),
    and probe parity (the engine-probe backend vs the AOT rewriter on
    the full hook-event stream).

    {b Totality}: feeding any byte string through decode (and, when it
    decodes, validate / instantiate / execute) may only raise the
    structured taxonomy exceptions ({!Error.classify} returns [Some]).
    [Stack_overflow], [Invalid_argument], [Out_of_memory], [Failure] or
    any other escape is a violation.

    {b Round-trip}: [decode (encode m) = m] for generated modules
    (structurally — the generator emits no NaN constants, so [=] is
    exact), and [encode ∘ decode] is idempotent on the bytes of any
    mutated binary that still decodes.

    {b Differential equivalence}: executing a generated module
    uninstrumented and instrumented (all hook groups, the no-op
    {!Wasabi.Analysis.default}) must produce the same result values, the
    same trap, and the same final memory and exported globals. The
    instrumented run gets its fuel scaled by {!hook_fuel_scale}; when the
    {e base} run already exhausts its fuel the case is skipped (the two
    executions are then cut off at incomparable points).

    {b Instrumentation soundness}: the static lint ({!Lint.check}) must
    report no errors on the instrumented module — once with full
    instrumentation and once with call-graph-driven selective pruning —
    so the structural faithfulness invariants are checked on every
    generated case, not only the behavioural ones the differential
    oracle can observe.

    {b Tier parity}: executing a generated module on tier 0 and with
    the tier-1 closure compiler forced on (threshold 1) must produce
    the same result values, the same trap, and the same final memory
    and exported globals — with the {e same} fuel. Tier 1 charges fuel
    at exactly tier 0's boundaries, so unlike the instrumentation
    differential this oracle does not skip out-of-fuel cases: both
    tiers must exhaust at the same point with the same partial state. *)

open Wasm

type verdict =
  | Pass
  | Skip of string  (** oracle not applicable to this case *)
  | Violation of { kind : string; detail : string }

let base_fuel = 100_000
let hook_fuel_scale = 1024

(* execution gates for arbitrary (mutated) valid modules: keep
   adversarial resource claims from slowing the campaign down — these
   are skips, not failures *)
let max_exec_memory_pages = 64
let max_exec_table_size = 65_536

let violation kind fmt = Printf.ksprintf (fun detail -> Violation { kind; detail }) fmt

(** Run [f]; a structured failure is data, anything else a crash (the
    crash string includes a backtrace when the runtime records them). *)
let guarded f =
  match f () with
  | v -> Ok (Ok v)
  | exception e ->
    (match Error.classify e with
     | Some err -> Ok (Error err)
     | None ->
       let bt = Printexc.get_backtrace () in
       Error (Printexc.to_string e ^ if bt = "" then "" else "\n" ^ bt))

(** {1 Totality} *)

let decode_total (bin : string) : (Ast.module_ option, string) result =
  match guarded (fun () -> Decode.decode bin) with
  | Ok (Ok m) -> Ok (Some m)
  | Ok (Error _) -> Ok None
  | Error crash -> Error crash

let validate_total (m : Ast.module_) : (bool, string) result =
  match guarded (fun () -> Validate.validate_module m) with
  | Ok (Ok ()) -> Ok true
  | Ok (Error _) -> Ok false
  | Error crash -> Error crash

(** {1 Round-trip} *)

let round_trip_generated (m : Ast.module_) : verdict =
  match guarded (fun () -> Decode.decode (Encode.encode m)) with
  | Ok (Ok m') ->
    if m' = m then Pass
    else violation "round-trip" "decode (encode m) differs structurally from m"
  | Ok (Error err) -> violation "round-trip" "re-decode rejected: %s" (Error.to_string err)
  | Error crash -> violation "totality-decode" "re-decode crashed: %s" crash

(** Byte idempotence for a decoded-from-mutation module: encoding, then
    decoding, then encoding again must reproduce the first encoding. *)
let round_trip_bytes (m : Ast.module_) : verdict =
  match guarded (fun () -> Encode.encode m) with
  | Error crash -> violation "totality-encode" "encode crashed: %s" crash
  | Ok (Error err) -> violation "totality-encode" "encode raised taxonomy error: %s" (Error.to_string err)
  | Ok (Ok bytes1) ->
    (match guarded (fun () -> Encode.encode (Decode.decode bytes1)) with
     | Ok (Ok bytes2) ->
       if String.equal bytes1 bytes2 then Pass
       else violation "round-trip" "encode/decode/encode is not idempotent"
     | Ok (Error err) ->
       violation "round-trip" "own encoding rejected: %s" (Error.to_string err)
     | Error crash -> violation "totality-decode" "re-decode crashed: %s" crash)

(** {1 Execution} *)

type run_result = {
  outcome : (Value.t list, Error.t) result;
  mem_digest : string option;  (** MD5 of final memory, when exported *)
  globals : (string * Value.t) list;  (** exported globals, post-run *)
}

let exported_globals (m : Ast.module_) =
  List.filter_map
    (fun (e : Ast.export) -> match e.edesc with Ast.GlobalExport _ -> Some e.name | _ -> None)
    m.exports

let exports_memory (m : Ast.module_) name =
  List.exists
    (fun (e : Ast.export) -> match e.edesc with Ast.MemoryExport _ -> e.name = name | _ -> false)
    m.exports

let snapshot (m : Ast.module_) (inst : Interp.instance) outcome : run_result =
  let mem_digest =
    if exports_memory m "mem" then
      let mem = Interp.export_memory inst "mem" in
      Some (Digest.string (Memory.to_string mem ~at:0 ~len:(Memory.size_bytes mem)))
    else None
  in
  let globals =
    List.map (fun n -> (n, (Interp.export_global inst n).Interp.g_value)) (exported_globals m)
  in
  { outcome; mem_digest; globals }

(** Instantiate and call [run]; crashes surface as [Error crash]. *)
let run_plain (m : Ast.module_) ~fuel : (run_result, string) result =
  match
    guarded (fun () ->
      let inst = Interp.instantiate ~fuel ~imports:[] m in
      let vs = Interp.invoke_export inst "run" [] in
      (inst, vs))
  with
  | Error crash -> Error crash
  | Ok (Ok (inst, vs)) -> Ok (snapshot m inst (Ok vs))
  | Ok (Error err) ->
    (* the instance is lost when instantiation itself failed; traps
       during [run] need the post-trap state, so re-run in two phases *)
    (match
       guarded (fun () ->
         let inst = Interp.instantiate ~fuel ~imports:[] m in
         (try ignore (Interp.invoke_export inst "run" []) with _ -> ());
         inst)
     with
     | Ok (Ok inst) -> Ok (snapshot m inst (Error err))
     | _ -> Ok { outcome = Error err; mem_digest = None; globals = [] })

(** Like {!run_plain}, but with the tier-1 compiler forced on
    (threshold 1: every function compiles on its first call). *)
let run_tiered (m : Ast.module_) ~fuel : (run_result, string) result =
  match
    guarded (fun () ->
      let inst = Interp.instantiate ~fuel ~imports:[] m in
      Tier1.enable ~threshold:1 inst;
      let vs = Interp.invoke_export inst "run" [] in
      (inst, vs))
  with
  | Error crash -> Error crash
  | Ok (Ok (inst, vs)) -> Ok (snapshot m inst (Ok vs))
  | Ok (Error err) ->
    (match
       guarded (fun () ->
         let inst = Interp.instantiate ~fuel ~imports:[] m in
         Tier1.enable ~threshold:1 inst;
         (try ignore (Interp.invoke_export inst "run" []) with _ -> ());
         inst)
     with
     | Ok (Ok inst) -> Ok (snapshot m inst (Error err))
     | _ -> Ok { outcome = Error err; mem_digest = None; globals = [] })

let run_instrumented (m : Ast.module_) ~fuel : (run_result, string) result =
  match
    guarded (fun () ->
      let res = Wasabi.Instrument.instrument m in
      let inst, _rt = Wasabi.Runtime.instantiate ~fuel res Wasabi.Analysis.default in
      let vs = Interp.invoke_export inst "run" [] in
      (inst, vs))
  with
  | Error crash -> Error crash
  | Ok (Ok (inst, vs)) -> Ok (snapshot m inst (Ok vs))
  | Ok (Error err) ->
    (match
       guarded (fun () ->
         let res = Wasabi.Instrument.instrument m in
         let inst, _rt = Wasabi.Runtime.instantiate ~fuel res Wasabi.Analysis.default in
         (try ignore (Interp.invoke_export inst "run" []) with _ -> ());
         inst)
     with
     | Ok (Ok inst) -> Ok (snapshot m inst (Error err))
     | _ -> Ok { outcome = Error err; mem_digest = None; globals = [] })

(** Uninstrumented run that also reports the final step count (the
    anchor for mid-run trigger placement and for the restore oracle's
    fuel bound). The invoke is guarded
    inline so the instance stays in hand after a structured trap. *)
let run_plain_steps (m : Ast.module_) ~fuel : (run_result * int, string) result =
  match
    guarded (fun () ->
      let inst = Interp.instantiate ~fuel ~imports:[] m in
      let outcome =
        try Ok (Interp.invoke_export inst "run" [])
        with e ->
          (match Error.classify e with Some err -> Error err | None -> raise e)
      in
      (inst, outcome))
  with
  | Error crash -> Error crash
  | Ok (Ok (inst, outcome)) -> Ok (snapshot m inst outcome, inst.Interp.steps)
  | Ok (Error err) -> Ok ({ outcome = Error err; mem_digest = None; globals = [] }, 0)

let string_of_outcome = function
  | Ok vs -> "values [" ^ String.concat "; " (List.map Value.to_string vs) ^ "]"
  | Error (e : Error.t) -> Error.to_string e

let outcomes_agree a b =
  match a, b with
  | Ok va, Ok vb -> List.length va = List.length vb && List.for_all2 Value.equal va vb
  | Error (ea : Error.t), Error (eb : Error.t) ->
    ea.Error.phase = eb.Error.phase && ea.Error.code = eb.Error.code
    && ea.Error.message = eb.Error.message
  | _ -> false

let is_out_of_fuel = function
  | Error (e : Error.t) -> e.Error.code = "resource-exhausted" && e.Error.message = "out of fuel"
  | Ok _ -> false

let engine_bug = function
  | Error (e : Error.t) when Error.is_engine_bug e -> true
  | _ -> false

(** The differential oracle for a generated module. *)
let differential (info : Gen.info) : verdict =
  let m = info.Gen.module_ in
  match run_plain m ~fuel:base_fuel with
  | Error crash -> violation "totality-exec" "uninstrumented run crashed: %s" crash
  | Ok base ->
    if engine_bug base.outcome then
      violation "engine-bug" "uninstrumented run: %s" (string_of_outcome base.outcome)
    else if is_out_of_fuel base.outcome then Skip "base-exhausted"
    else (
      match run_instrumented m ~fuel:(base_fuel * hook_fuel_scale) with
      | Error crash -> violation "totality-exec" "instrumented run crashed: %s" crash
      | Ok instr ->
        if engine_bug instr.outcome then
          violation "engine-bug" "instrumented run: %s" (string_of_outcome instr.outcome)
        else if not (outcomes_agree base.outcome instr.outcome) then
          violation "differential" "outcome diverged: base %s vs instrumented %s"
            (string_of_outcome base.outcome) (string_of_outcome instr.outcome)
        else if base.mem_digest <> instr.mem_digest then
          violation "differential" "final memory diverged"
        else (
          let diverged =
            List.filter
              (fun (n, v) ->
                 match List.assoc_opt n instr.globals with
                 | Some v' -> not (Value.equal v v')
                 | None -> true)
              base.globals
          in
          match diverged with
          | [] -> Pass
          | (n, v) :: _ ->
            let v' =
              match List.assoc_opt n instr.globals with
              | Some v' -> Value.to_string v'
              | None -> "<missing>"
            in
            violation "differential" "global %s diverged: base %s vs instrumented %s" n
              (Value.to_string v) v'))

(** The tier-parity oracle for a generated module: tier 0 and tier 1
    must agree outcome-for-outcome at identical fuel — including on
    out-of-fuel exhaustion, which the charging-parity contract makes
    comparable (both tiers cut off at the same instruction). *)
let tier_differential (info : Gen.info) : verdict =
  let m = info.Gen.module_ in
  match run_plain m ~fuel:base_fuel with
  | Error crash -> violation "totality-exec" "tier-0 run crashed: %s" crash
  | Ok t0 ->
    if engine_bug t0.outcome then
      violation "engine-bug" "tier-0 run: %s" (string_of_outcome t0.outcome)
    else (
      match run_tiered m ~fuel:base_fuel with
      | Error crash -> violation "totality-exec" "tier-1 run crashed: %s" crash
      | Ok t1 ->
        if engine_bug t1.outcome then
          violation "engine-bug" "tier-1 run: %s" (string_of_outcome t1.outcome)
        else if not (outcomes_agree t0.outcome t1.outcome) then
          violation "tier-parity" "outcome diverged: tier0 %s vs tier1 %s"
            (string_of_outcome t0.outcome) (string_of_outcome t1.outcome)
        else if t0.mem_digest <> t1.mem_digest then
          violation "tier-parity" "final memory diverged"
        else (
          let diverged =
            List.filter
              (fun (n, v) ->
                 match List.assoc_opt n t1.globals with
                 | Some v' -> not (Value.equal v v')
                 | None -> true)
              t0.globals
          in
          match diverged with
          | [] -> Pass
          | (n, v) :: _ ->
            let v' =
              match List.assoc_opt n t1.globals with
              | Some v' -> Value.to_string v'
              | None -> "<missing>"
            in
            violation "tier-parity" "global %s diverged: tier0 %s vs tier1 %s" n
              (Value.to_string v) v'))

(** {1 Restore equivalence}

    The fault-containment property, as an executable oracle: take an
    instrumented instance, snapshot it pristine, batter it with a
    seeded host-fault plan (hook trap / corrupt return / budget burn),
    restore, run clean — the restored run must be indistinguishable
    (outcome, memory digest, exported globals) from a run on a fresh
    instance. Half the cases run with the tier-1 compiler forced on and
    deopt-on-fault enabled, so compiled-body unwinding and permanent
    deopt are exercised under the same equivalence. *)

let compare_runs ~kind ~left ~right (a : run_result) (b : run_result) : verdict =
  if not (outcomes_agree a.outcome b.outcome) then
    violation kind "outcome diverged: %s %s vs %s %s" left (string_of_outcome a.outcome) right
      (string_of_outcome b.outcome)
  else if a.mem_digest <> b.mem_digest then violation kind "final memory diverged"
  else (
    let diverged =
      List.filter
        (fun (n, v) ->
           match List.assoc_opt n b.globals with
           | Some v' -> not (Value.equal v v')
           | None -> true)
        a.globals
    in
    match diverged with
    | [] -> Pass
    | (n, v) :: _ ->
      let v' =
        match List.assoc_opt n b.globals with
        | Some v' -> Value.to_string v'
        | None -> "<missing>"
      in
      violation kind "global %s diverged: %s %s vs %s %s" n left (Value.to_string v) right v')

(** Fuel multiplier over the plain run's step count for the restore
    oracle's instrumented runs. Over the 1996 terminating cases of the
    seed-1 campaign the instrumented/plain step ratio peaks at 16.8
    (full hooks, no-op analysis); twice that, rounded up, is 34. *)
let restore_fuel_scale = 34

(** Fuel for the restore oracle's three instrumented runs, from a plain
    screening run: [restore_fuel_scale] × its steps when it terminates,
    [base_fuel × restore_fuel_scale] when it exhausts its fuel (or
    crashes, which the differential oracle reports), and never more than
    the differential oracle's [base_fuel × hook_fuel_scale]. *)
let restore_fuel (m : Ast.module_) =
  match run_plain_steps m ~fuel:base_fuel with
  | Ok (base, steps) when not (is_out_of_fuel base.outcome) ->
    min (base_fuel * hook_fuel_scale) (max steps 1 * restore_fuel_scale)
  | Ok _ | Error _ -> base_fuel * restore_fuel_scale

let restore_equivalence ~seed ~index (info : Gen.info) : verdict =
  let m = info.Gen.module_ in
  let fuel = restore_fuel m in
  let tiered = index land 1 = 0 in
  let fplan = Faults.plan ~seed ~index in
  (* [guarded] wraps each phase separately so a crash names its phase;
     the instance stays in hand after a structured failure, so post-trap
     state is read directly (no two-phase re-run) *)
  let instantiate_faulted () =
    guarded (fun () ->
      let res = Wasabi.Instrument.instrument m in
      let inst, _rt =
        Wasabi.Runtime.instantiate ~fuel ~wrap_host:(Faults.wrap fplan) res
          Wasabi.Analysis.default
      in
      if tiered then begin
        Tier1.enable ~threshold:1 inst;
        Interp.set_deopt_on_fault inst true
      end;
      let gov = Governor.create () in
      Interp.set_governor inst (Some gov);
      Governor.arm gov;
      (inst, gov))
  in
  let run_on inst =
    match guarded (fun () -> Interp.invoke_export inst "run" []) with
    | Error crash -> Error crash
    | Ok (Ok vs) -> Ok (snapshot m inst (Ok vs))
    | Ok (Error err) -> Ok (snapshot m inst (Error err))
  in
  match instantiate_faulted () with
  | Error crash -> violation "totality-exec" "faulted instantiation crashed: %s" crash
  | Ok (Error err) ->
    (* instantiation failed before any fault was armed — nothing to
       restore; the generator only emits instantiable modules, so treat
       a structured failure here as a skip, not a violation *)
    Skip (Printf.sprintf "instantiation failed: %s" (Error.to_string err))
  | Ok (Ok (inst, gov)) ->
    let pristine = Snapshot.capture inst in
    Faults.attach fplan inst;
    Faults.arm fplan;
    (match run_on inst with
     | Error crash -> violation "totality-exec" "faulted run crashed (%s): %s" (Faults.describe fplan) crash
     | Ok faulted ->
       if engine_bug faulted.outcome then
         violation "engine-bug" "faulted run (%s): %s" (Faults.describe fplan)
           (string_of_outcome faulted.outcome)
       else begin
         Faults.disarm fplan;
         Snapshot.restore pristine inst;
         Governor.arm gov;
         match run_on inst with
         | Error crash ->
           violation "totality-exec" "post-restore run crashed (%s): %s" (Faults.describe fplan)
             crash
         | Ok restored ->
           (* reference: the same module on a fresh instance, same fuel,
              same tier setting, no faults *)
           (match
              guarded (fun () ->
                let res = Wasabi.Instrument.instrument m in
                let inst', _rt = Wasabi.Runtime.instantiate ~fuel res Wasabi.Analysis.default in
                if tiered then Tier1.enable ~threshold:1 inst';
                inst')
            with
            | Error crash -> violation "totality-exec" "fresh instantiation crashed: %s" crash
            | Ok (Error err) ->
              violation "restore" "fresh instantiation failed after faulted one succeeded: %s"
                (Error.to_string err)
            | Ok (Ok fresh_inst) ->
              (match run_on fresh_inst with
               | Error crash -> violation "totality-exec" "fresh run crashed: %s" crash
               | Ok fresh ->
                 compare_runs ~kind:"restore" ~left:"restored" ~right:"fresh" restored fresh))
       end)

(** {1 Instrumentation soundness} *)

(** Instrument the module and run the static soundness lint over the
    result — with full instrumentation, with selective pruning, and with
    static hook folding on top (whose discharged sites the lint verifies
    against recomputed facts). Any [Error]-severity finding — or an
    instrument/lint crash outside the error taxonomy — is a violation. *)
let lint_instrumented (m : Ast.module_) : verdict =
  let one ~prune_unreachable ~fold tag =
    match
      guarded (fun () ->
        Lint.errors (Lint.check (Wasabi.Instrument.instrument ~prune_unreachable ~fold m)))
    with
    | Error crash -> violation "totality-lint" "%s: instrument/lint crashed: %s" tag crash
    | Ok (Error err) ->
      violation "totality-lint" "%s: instrument/lint raised: %s" tag (Error.to_string err)
    | Ok (Ok []) -> Pass
    | Ok (Ok (f :: _ as errs)) ->
      violation "lint" "%s: %d soundness error%s; first: %s" tag (List.length errs)
        (if List.length errs = 1 then "" else "s")
        (Lint.to_string f)
  in
  match one ~prune_unreachable:false ~fold:false "full" with
  | Pass ->
    (match one ~prune_unreachable:true ~fold:false "pruned" with
     | Pass -> one ~prune_unreachable:true ~fold:true "pruned+folded"
     | v -> v)
  | v -> v

(** {1 Static over-approximation soundness}

    The abstract interpretation ({!Static.Absint}) claims its facts
    over-approximate every execution. This oracle tests the claim
    end-to-end: run the module instrumented with an {e observing}
    analysis and assert that every dynamically observed indirect-call
    target and table index, branch condition, [br_table] index, binary
    operand and global value is contained in the corresponding static
    fact — and that no hook fires at a site the analysis reports dead.
    Then run once more with [~fold] instrumentation and require the
    folded module to produce the {e identical} hook-event stream and
    final state, which exercises every statically-discharged site
    against reality. *)

(** An analysis that renders every hook event as one line into [buf]
    (deterministic: locations, op names and values only). *)
let recording_analysis buf : Wasabi.Analysis.t =
  let l (loc : Wasabi.Location.t) =
    Printf.sprintf "%d:%d" loc.Wasabi.Location.func loc.Wasabi.Location.instr
  in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  let v = Value.to_string in
  let vs xs = String.concat "," (List.map v xs) in
  let bk = function
    | Wasabi.Hook.Bfunction -> "fn"
    | Wasabi.Hook.Bblock -> "blk"
    | Wasabi.Hook.Bloop -> "loop"
    | Wasabi.Hook.Bif -> "if"
    | Wasabi.Hook.Belse -> "else"
  in
  {
    Wasabi.Analysis.nop = (fun loc -> p "nop %s" (l loc));
    unreachable = (fun loc -> p "unreachable %s" (l loc));
    if_ = (fun loc c -> p "if %s %b" (l loc) c);
    br = (fun loc t -> p "br %s ->%s" (l loc) (l t.Wasabi.Metadata.target_loc));
    br_if = (fun loc t c -> p "br_if %s ->%s %b" (l loc) (l t.Wasabi.Metadata.target_loc) c);
    br_table = (fun loc _targets _default i -> p "br_table %s %d" (l loc) i);
    begin_ = (fun loc k -> p "begin %s %s" (l loc) (bk k));
    end_ = (fun loc k b -> p "end %s %s %s" (l loc) (bk k) (l b));
    const = (fun loc x -> p "const %s %s" (l loc) (v x));
    drop = (fun loc x -> p "drop %s %s" (l loc) (v x));
    select = (fun loc c a b -> p "select %s %b %s %s" (l loc) c (v a) (v b));
    unary = (fun loc op a r -> p "unary %s %s %s %s" (l loc) op (v a) (v r));
    binary = (fun loc op a b r -> p "binary %s %s %s %s %s" (l loc) op (v a) (v b) (v r));
    local = (fun loc op x a -> p "local %s %s %d %s" (l loc) op x (v a));
    global = (fun loc op x a -> p "global %s %s %d %s" (l loc) op x (v a));
    load =
      (fun loc op ma a ->
         p "load %s %s %ld+%d %s" (l loc) op ma.Wasabi.Analysis.addr ma.Wasabi.Analysis.offset (v a));
    store =
      (fun loc op ma a ->
         p "store %s %s %ld+%d %s" (l loc) op ma.Wasabi.Analysis.addr ma.Wasabi.Analysis.offset (v a));
    memory_size = (fun loc s -> p "memory_size %s %d" (l loc) s);
    memory_grow = (fun loc d pr -> p "memory_grow %s %d %d" (l loc) d pr);
    call_pre =
      (fun loc callee args ti ->
         p "call_pre %s %d [%s]%s" (l loc) callee (vs args)
           (match ti with None -> "" | Some i -> Printf.sprintf " tbl:%d" i));
    call_post = (fun loc rs -> p "call_post %s [%s]" (l loc) (vs rs));
    return_ = (fun loc rs -> p "return %s [%s]" (l loc) (vs rs));
    start = (fun loc -> p "start %s" (l loc));
  }

(** Run the module instrumented (optionally [~fold]ed) under [analysis],
    which may write into [buf]; on the two-phase post-trap re-run the
    buffer is cleared so events are not recorded twice. *)
let run_observed (m : Ast.module_) ~fold ~fuel ~analysis ~buf : (run_result, string) result =
  match
    guarded (fun () ->
      let res = Wasabi.Instrument.instrument ~fold m in
      let inst, _rt = Wasabi.Runtime.instantiate ~fuel res analysis in
      let vs = Interp.invoke_export inst "run" [] in
      (inst, vs))
  with
  | Error crash -> Error crash
  | Ok (Ok (inst, vs)) -> Ok (snapshot m inst (Ok vs))
  | Ok (Error err) ->
    Buffer.clear buf;
    (match
       guarded (fun () ->
         let res = Wasabi.Instrument.instrument ~fold m in
         let inst, _rt = Wasabi.Runtime.instantiate ~fuel res analysis in
         (try ignore (Interp.invoke_export inst "run" []) with _ -> ());
         inst)
     with
     | Ok (Ok inst) -> Ok (snapshot m inst (Error err))
     | _ -> Ok { outcome = Error err; mem_digest = None; globals = [] })

let first_stream_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i pair =
    match pair with
    | x :: xs, y :: ys ->
      if String.equal x y then go (i + 1) (xs, ys)
      else Printf.sprintf "event %d: %S vs %S" i x y
    | [], y :: _ -> Printf.sprintf "event %d: <end> vs %S" i y
    | x :: _, [] -> Printf.sprintf "event %d: %S vs <end>" i x
    | [], [] -> "identical"
  in
  go 0 (la, lb)

let absint_soundness (info : Gen.info) : verdict =
  let m = info.Gen.module_ in
  match guarded (fun () -> Static.Absint.analyze m) with
  | Error crash -> violation "totality-absint" "abstract interpretation crashed: %s" crash
  | Ok (Error err) ->
    violation "totality-absint" "abstract interpretation raised: %s" (Error.to_string err)
  | Ok (Ok fx) ->
    (match run_plain m ~fuel:base_fuel with
     | Error crash -> violation "totality-exec" "uninstrumented run crashed: %s" crash
     | Ok base ->
       if is_out_of_fuel base.outcome then Skip "base-exhausted"
       else begin
         let bad = ref None in
         let note (loc : Wasabi.Location.t) what detail =
           if !bad = None then
             bad :=
               Some
                 (Printf.sprintf "%s at f%d@%d: %s" what loc.Wasabi.Location.func
                    loc.Wasabi.Location.instr detail)
         in
         let fact ?(depth = 0) (loc : Wasabi.Location.t) =
           Static.Absint.value_at fx ~func:loc.Wasabi.Location.func
             ~pc:loc.Wasabi.Location.instr ~depth
         in
         let n_imp = Ast.num_imported_funcs m in
         let bodies = Array.of_list m.Ast.funcs in
         let instr_at (loc : Wasabi.Location.t) =
           let i = loc.Wasabi.Location.func - n_imp in
           if i < 0 || i >= Array.length bodies then None
           else List.nth_opt bodies.(i).Ast.body loc.Wasabi.Location.instr
         in
         (* the call_pre hook fires before the call dispatches, so the
            static target set is only binding when the dispatch will
            succeed: a resolved callee of the site's exact type (empty or
            type-mismatched slots trap right after the hook) *)
         let dispatches (loc : Wasabi.Location.t) callee =
           callee >= 0
           && (match instr_at loc with
               | Some (Ast.CallIndirect ti) ->
                 (match List.nth_opt m.Ast.types ti with
                  | Some ft -> Types.equal_func_type ft (Ast.func_type_at m callee)
                  | None -> false)
               | _ -> false)
         in
         let check_live (loc : Wasabi.Location.t) what =
           if
             not
               (Static.Absint.live fx ~func:loc.Wasabi.Location.func
                  ~pc:loc.Wasabi.Location.instr)
           then note loc what "event observed at a statically-dead site"
         in
         let check_contains loc what v f =
           if not (Static.Interval.contains f v) then
             note loc what
               (Printf.sprintf "observed %s outside %s" (Value.to_string v)
                  (Static.Interval.to_string f))
         in
         let check_cond loc what c =
           check_live loc what;
           let f = fact loc in
           let ok =
             if c then Static.Interval.may_be_nonzero f else Static.Interval.may_be_zero f
           in
           if not ok then
             note loc what
               (Printf.sprintf "observed condition %b outside %s" c
                  (Static.Interval.to_string f))
         in
         let checker =
           {
             Wasabi.Analysis.default with
             if_ = (fun loc c -> check_cond loc "if-cond" c);
             br_if = (fun loc _t c -> check_cond loc "br-if" c);
             br_table =
               (fun loc _targets _default i ->
                  check_live loc "br-table";
                  check_contains loc "br-table" (Value.I32 (Int32.of_int i)) (fact loc));
             binary =
               (fun loc _op a b _r ->
                  check_live loc "binary";
                  check_contains loc "binary-lhs" a (fact ~depth:1 loc);
                  check_contains loc "binary-rhs" b (fact loc));
             global =
               (fun loc _op x v ->
                  check_contains loc "global" v (Static.Absint.global_fact fx x));
             call_pre =
               (fun loc callee _args ti ->
                  match ti with
                  | None -> ()
                  | Some tbl ->
                    (match
                       Static.Absint.indirect_site fx ~func:loc.Wasabi.Location.func
                         ~pc:loc.Wasabi.Location.instr
                     with
                     | None ->
                       note loc "call-indirect" "executed a statically-dead indirect call site"
                     | Some (iv, targets) ->
                       check_contains loc "call-indirect-index" (Value.I32 (Int32.of_int tbl)) iv;
                       if dispatches loc callee && not (List.mem callee targets) then
                         note loc "call-indirect"
                           (Printf.sprintf "callee %d outside static target set {%s}" callee
                              (String.concat " " (List.map string_of_int targets)))));
           }
         in
         let fuel = base_fuel * hook_fuel_scale in
         let buf0 = Buffer.create 1024 and buf1 = Buffer.create 1024 in
         let observed =
           run_observed m ~fold:false ~fuel
             ~analysis:(Wasabi.Analysis.combine checker (recording_analysis buf0))
             ~buf:buf0
         in
         match observed with
         | Error crash -> violation "totality-exec" "observed run crashed: %s" crash
         | Ok r0 ->
           (match !bad with
            | Some detail -> violation "absint-soundness" "%s" detail
            | None ->
              if is_out_of_fuel r0.outcome then Skip "instrumented-exhausted"
              else (
                match
                  run_observed m ~fold:true ~fuel ~analysis:(recording_analysis buf1) ~buf:buf1
                with
                | Error crash -> violation "totality-exec" "folded run crashed: %s" crash
                | Ok r1 ->
                  if is_out_of_fuel r1.outcome then Skip "folded-exhausted"
                  else if not (String.equal (Buffer.contents buf0) (Buffer.contents buf1)) then
                    violation "absint-fold" "hook-event streams diverged: %s"
                      (first_stream_diff (Buffer.contents buf0) (Buffer.contents buf1))
                  else
                    compare_runs ~kind:"absint-fold" ~left:"unfolded" ~right:"folded" r0 r1))
       end)

(** {1 Probe parity}

    The engine-probe backend ({!Wasabi.Runtime.Probe}) and the AOT
    rewriter are two implementations of one observability contract:
    the same analysis must see the same hook events either way. This
    oracle runs a generated module three times — uninstrumented, AOT
    instrumented with a recording analysis, and uninstrumented with
    engine probes delivering to the same recording analysis — and
    requires:

    - the probed run's outcome, final memory and exported globals to
      equal the {e plain} run's (probes must not perturb execution, and
      they charge fuel at tier-0 parity, so both run at [base_fuel]);
    - with all hook groups attached for the whole run (tier 0 or with
      the tier-1 compiler forced on, so attach-deopt is exercised), the
      probe event stream to be byte-identical to the AOT stream;
    - with a mid-run attach or detach (a step trigger at half the plain
      run's step count), the probe stream to be an order-preserving
      subsequence of the AOT stream — live attachment may only narrow
      the observation window, never reorder or invent events;
    - with a sparse subset of the groups drawn from the case seed and
      attached for the whole run, the probe stream to be byte-identical
      to the stream of the AOT rewrite for the same groups. Sparse
      probes leave fused superinstructions between the probe slots, so
      this is the variant that runs them side by side.

    Both recorded runs drop events emitted during instantiation (the
    start function): probes attach after [instantiate] returns, so the
    comparable window starts at the [run] invocation. *)

(** How the probed run attaches its all-groups probe. *)
type probe_variant =
  | P_plain  (** attach before the run, tier 0 throughout *)
  | P_tiered  (** attach before the run, tier-1 compiler forced on *)
  | P_attach_mid of int  (** tiered; attach once [steps] reaches [n] *)
  | P_detach_mid of int  (** attached from the start, detached at [n] *)
  | P_sparse of Wasabi.Hook.group list
      (** only these groups, attached before the run, tier 0 *)

(** AOT-instrumented run recording the hook-event stream into [buf],
    cleared right after instantiation so start-function events (which
    the probe run cannot observe — it attaches afterwards) are not
    part of the comparison. *)
let run_recorded_aot ?groups (m : Ast.module_) ~fuel ~buf : (run_result, string) result =
  match
    guarded (fun () ->
      let res = Wasabi.Instrument.instrument ?groups m in
      let inst, _rt = Wasabi.Runtime.instantiate ~fuel res (recording_analysis buf) in
      Buffer.clear buf;
      let outcome =
        try Ok (Interp.invoke_export inst "run" [])
        with e ->
          (match Error.classify e with Some err -> Error err | None -> raise e)
      in
      (inst, outcome))
  with
  | Error crash -> Error crash
  | Ok (Ok (inst, outcome)) -> Ok (snapshot m inst outcome)
  | Ok (Error err) -> Ok { outcome = Error err; mem_digest = None; globals = [] }

(** Engine-probe run on the {e original} module, recording into [buf].
    A fresh metrics registry keeps campaign iterations from sharing
    probe counters. *)
let run_probed (m : Ast.module_) ~fuel ~variant ~buf : (run_result, string) result =
  match
    guarded (fun () ->
      let inst = Interp.instantiate ~fuel ~imports:[] m in
      let c =
        Wasabi.Runtime.Probe.create ~registry:(Obs.Metrics.create ()) inst
          (recording_analysis buf)
      in
      Buffer.clear buf;
      let all =
        { Obs.Probe.sp_groups = []; sp_func = None; sp_loc = None; sp_nth = 1 }
      in
      (match variant with
       | P_plain -> ignore (Wasabi.Runtime.Probe.attach c all)
       | P_tiered ->
         Tier1.enable ~threshold:1 inst;
         ignore (Wasabi.Runtime.Probe.attach c all)
       | P_attach_mid n ->
         Tier1.enable ~threshold:1 inst;
         Wasabi.Runtime.Probe.attach_at c ~step:n all
       | P_detach_mid n ->
         let e = Wasabi.Runtime.Probe.attach c all in
         Wasabi.Runtime.Probe.detach_at c ~step:n e
       | P_sparse groups ->
         ignore
           (Wasabi.Runtime.Probe.attach c
              { all with sp_groups = List.map Wasabi.Hook.group_name groups }));
      let outcome =
        try Ok (Interp.invoke_export inst "run" [])
        with e ->
          (match Error.classify e with Some err -> Error err | None -> raise e)
      in
      (inst, outcome))
  with
  | Error crash -> Error crash
  | Ok (Ok (inst, outcome)) -> Ok (snapshot m inst outcome)
  | Ok (Error err) -> Ok { outcome = Error err; mem_digest = None; globals = [] }

(** First line of [sub] (as [(index, line)]) that cannot be matched by
    an order-preserving scan of [of_]; [None] when [sub] is a
    subsequence. *)
let subsequence_failure ~sub ~of_ =
  let rec drop_until x = function
    | [] -> None
    | y :: ys -> if String.equal x y then Some ys else drop_until x ys
  in
  let rec go i sub full =
    match sub with
    | [] -> None
    | x :: xs ->
      (match drop_until x full with
       | Some rest -> go (i + 1) xs rest
       | None -> Some (i, x))
  in
  go 0 (String.split_on_char '\n' sub) (String.split_on_char '\n' of_)

(** The sparse variant's hook groups: one to three of the figure groups,
    drawn from the case's [(seed, index)]. *)
let sparse_groups ~seed ~index =
  let rng = Rng.create (Hashtbl.hash ("probe-parity sparse", seed, index)) in
  let pool = Array.of_list Wasabi.Hook.figure_groups in
  List.sort_uniq compare
    (List.init (Rng.range rng 1 3) (fun _ -> pool.(Rng.int rng (Array.length pool))))

(** The probe-parity oracle. [index] picks the variant (round-robin),
    so a campaign interleaves full-attach exactness with mid-run
    attach/detach and tier-1 deopt cases; every case then also runs the
    sparse variant, its groups drawn from [(seed, index)]. *)
let probe_parity ?(seed = 0) ~index (info : Gen.info) : verdict =
  let m = info.Gen.module_ in
  match run_plain_steps m ~fuel:base_fuel with
  | Error crash -> violation "totality-exec" "uninstrumented run crashed: %s" crash
  | Ok (base, steps) ->
    if engine_bug base.outcome then
      violation "engine-bug" "uninstrumented run: %s" (string_of_outcome base.outcome)
    else if is_out_of_fuel base.outcome then Skip "base-exhausted"
    else begin
      (* the AOT recorded run for [groups]; [k] checks its stream *)
      let with_aot ?groups k =
        let buf_aot = Buffer.create 1024 in
        match run_recorded_aot ?groups m ~fuel:(base_fuel * hook_fuel_scale) ~buf:buf_aot with
        | Error crash -> violation "totality-exec" "AOT recorded run crashed: %s" crash
        | Ok aot ->
          if engine_bug aot.outcome then
            violation "engine-bug" "AOT recorded run: %s" (string_of_outcome aot.outcome)
          else if is_out_of_fuel aot.outcome then Skip "instrumented-exhausted"
          else k (Buffer.contents buf_aot)
      in
      (* one probed run against the plain run and the AOT stream [sa] *)
      let check_probed ~variant ~vname sa =
        let buf_p = Buffer.create 1024 in
        match run_probed m ~fuel:base_fuel ~variant ~buf:buf_p with
        | Error crash -> violation "totality-exec" "probed run (%s) crashed: %s" vname crash
        | Ok probed ->
          if engine_bug probed.outcome then
            violation "engine-bug" "probed run (%s): %s" vname
              (string_of_outcome probed.outcome)
          else begin
            match compare_runs ~kind:"probe-parity" ~left:"plain" ~right:vname base probed with
            | Pass ->
              let sp = Buffer.contents buf_p in
              (match variant with
               | P_plain | P_tiered | P_sparse _ ->
                 if String.equal sa sp then Pass
                 else
                   violation "probe-parity" "hook-event streams diverged (%s): %s" vname
                     (first_stream_diff sa sp)
               | P_attach_mid _ | P_detach_mid _ ->
                 (match subsequence_failure ~sub:sp ~of_:sa with
                  | None -> Pass
                  | Some (i, line) ->
                    violation "probe-parity"
                      "probe event %d (%s) absent from the AOT stream in order: %S" i vname
                      line))
            | v -> v
          end
      in
      let mid = max 1 (steps / 2) in
      let variant, vname =
        match index mod 4 with
        | 0 -> (P_plain, "attach-all")
        | 1 -> (P_tiered, "tiered attach-all")
        | 2 -> (P_attach_mid mid, "tiered mid-run attach")
        | _ -> (P_detach_mid mid, "mid-run detach")
      in
      match with_aot (check_probed ~variant ~vname) with
      | Pass ->
        let groups = sparse_groups ~seed ~index in
        let vname =
          "sparse " ^ String.concat "," (List.map Wasabi.Hook.group_name groups)
        in
        with_aot ~groups:(Wasabi.Hook.of_list groups)
          (check_probed ~variant:(P_sparse groups) ~vname)
      | v -> v
    end

(** Execution totality for an arbitrary valid module (mutation pipeline):
    instantiating with no imports and invoking the first nullary exported
    function may fail only inside the taxonomy. Modules whose declared
    memory/table would make execution needlessly expensive are skipped,
    not failed. *)
let execution_total (m : Ast.module_) : verdict =
  let big_memory =
    List.exists (fun (mt : Types.memory_type) -> mt.Types.mem_limits.Types.lim_min > max_exec_memory_pages) m.memories
    || List.exists
         (fun (i : Ast.import) ->
            match i.Ast.idesc with
            | Ast.MemoryImport mt -> mt.Types.mem_limits.Types.lim_min > max_exec_memory_pages
            | _ -> false)
         m.imports
  in
  let big_table =
    List.exists (fun (tt : Types.table_type) -> tt.Types.tbl_limits.Types.lim_min > max_exec_table_size) m.tables
  in
  if big_memory || big_table then Skip "oversized-memory-or-table"
  else (
    let nullary_export =
      (* the first exported function whose type takes no parameters *)
      let n_imported = Ast.num_imported_funcs m in
      List.find_map
        (fun (e : Ast.export) ->
           match e.Ast.edesc with
           | Ast.FuncExport i when i >= n_imported ->
             (match List.nth_opt m.funcs (i - n_imported) with
              | Some f ->
                (match List.nth_opt m.types f.Ast.ftype with
                 | Some ft when ft.Types.params = [] -> Some e.Ast.name
                 | _ -> None)
              | None -> None)
           | _ -> None)
        m.exports
    in
    match
      guarded (fun () ->
        let inst = Interp.instantiate ~fuel:base_fuel ~imports:[] m in
        match nullary_export with
        | Some name -> ignore (Interp.invoke_export inst name [])
        | None -> ())
    with
    | Ok _ -> Pass
    | Error crash -> violation "totality-exec" "execution crashed: %s" crash)
