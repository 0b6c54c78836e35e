(** Serving-runtime tests: copy-on-write forks, concurrent snapshot
    restore, farm totals and event-stream faithfulness, sharded fuzzing
    determinism, and domain-safe observability primitives. *)

open Wasm
module W = Wasabi
module S = Serve

(* A small workload with memory traffic, globals, branches and arithmetic,
   so instrumentation produces a varied event stream. *)
let workload_src =
  {|(module
      (memory 1)
      (global (mut i32) (i32.const 0))
      (func (export "run") (result i32)
        (local i32) (local i32)
        (block
          (loop
            (i32.store (i32.const 16) (local.get 1))
            (local.set 1 (i32.add (i32.load (i32.const 16)) (i32.const 3)))
            (local.set 0 (i32.add (local.get 0) (i32.const 1)))
            (br_if 1 (i32.ge_s (local.get 0) (i32.const 25)))
            (br 0)))
        (global.set 0 (local.get 1))
        (global.get 0)))|}

let trap_src = {|(module (func (export "run") (unreachable)))|}

let instrumented src =
  let m = Wat_parse.parse src in
  Validate.validate_module m;
  W.Instrument.instrument m

let mix () =
  let st = Analyses.Instruction_mix.create () in
  (st, Analyses.Instruction_mix.analysis st)

(* ------------------------------------------------------------------ *)
(* Runtime.fork: isolation and equivalence                             *)
(* ------------------------------------------------------------------ *)

let test_fork_isolation () =
  let res = instrumented workload_src in
  let tmpl_inst, template = W.Runtime.instantiate res W.Analysis.default in
  let pristine = Snapshot.state_digest tmpl_inst in
  let st, analysis = mix () in
  let inst, _rt = W.Runtime.fork template analysis in
  Alcotest.(check string) "fork starts at the template's pristine state" pristine
    (Snapshot.state_digest inst);
  let out = Interp.invoke_export inst "run" [] in
  Alcotest.(check bool) "fork's analysis observed events" true
    (Analyses.Instruction_mix.total st > 0);
  Alcotest.(check string) "running the fork left the template untouched" pristine
    (Snapshot.state_digest tmpl_inst);
  let out' = Interp.invoke_export tmpl_inst "run" [] in
  Alcotest.(check bool) "fork and template compute the same result" true
    (compare out out' = 0)

(* ------------------------------------------------------------------ *)
(* Concurrent snapshot restore: N domains, one capture                 *)
(* ------------------------------------------------------------------ *)

(* Fork, optionally tier-compile and govern, restore the SHARED capture
   (cross-instance), run, and digest both the restored and final states. *)
let restore_run ~tier1 ~governed template snap =
  let _st, analysis = mix () in
  let inst, _rt = W.Runtime.fork template analysis in
  if tier1 then ignore (Tier1.compile_all inst : int);
  let gov = if governed then Some (Governor.create ~deadline_ms:60_000.0 ()) else None in
  Interp.set_governor inst gov;
  Snapshot.restore snap inst;
  let restored = Snapshot.state_digest inst in
  Option.iter Governor.arm gov;
  ignore (Interp.invoke_export inst "run" [] : Value.t list);
  (restored, Snapshot.state_digest inst)

let test_concurrent_restore () =
  let res = instrumented workload_src in
  let tmpl_inst, template = W.Runtime.instantiate res W.Analysis.default in
  let snap = Snapshot.capture tmpl_inst in
  List.iter
    (fun (tier1, governed) ->
       let label =
         Printf.sprintf "tier1=%b governed=%b" tier1 governed
       in
       (* sequential reference: N restores of the same capture in a row *)
       let seq = Array.init 4 (fun _ -> restore_run ~tier1 ~governed template snap) in
       (* concurrent: N domains fork + restore the same capture at once *)
       let par =
         Array.map Domain.join
           (Array.init 4 (fun _ ->
                Domain.spawn (fun () -> restore_run ~tier1 ~governed template snap)))
       in
       Array.iteri
         (fun i (restored, final) ->
            let r0, f0 = seq.(0) in
            Alcotest.(check string)
              (Printf.sprintf "%s: sequential restore %d reaches the same state" label i)
              r0 restored;
            Alcotest.(check string)
              (Printf.sprintf "%s: sequential run %d ends in the same state" label i)
              f0 final)
         seq;
       Array.iteri
         (fun i (restored, final) ->
            let r0, f0 = seq.(0) in
            Alcotest.(check string)
              (Printf.sprintf "%s: concurrent restore %d ≡ sequential" label i)
              r0 restored;
            Alcotest.(check string)
              (Printf.sprintf "%s: concurrent run %d ≡ sequential" label i)
              f0 final)
         par)
    [ (false, false); (true, false); (false, true); (true, true) ]

(* ------------------------------------------------------------------ *)
(* Farm: totals, fault containment, event-stream faithfulness         *)
(* ------------------------------------------------------------------ *)

let test_farm_sync_totals () =
  let res = instrumented workload_src in
  let states = Array.init 3 (fun _ -> Analyses.Instruction_mix.create ()) in
  let stats =
    S.Farm.run ~domains:3 ~runs:10 ~entry:"run"
      ~make_analysis:(fun w -> Analyses.Instruction_mix.analysis states.(w))
      res
  in
  Alcotest.(check int) "every requested run served" 10 stats.S.Farm.st_runs;
  Alcotest.(check int) "no faults on a clean workload" 0 stats.S.Farm.st_faults;
  (* restore-per-run means every run observes the same events, so the
     merged per-worker mixes must equal 10 × one reference run *)
  let merged = states.(0) in
  Analyses.Instruction_mix.merge ~into:merged states.(1);
  Analyses.Instruction_mix.merge ~into:merged states.(2);
  let ref_st, ref_analysis = mix () in
  let _tmpl, template = W.Runtime.instantiate res W.Analysis.default in
  let inst, _rt = W.Runtime.fork template ref_analysis in
  ignore (Interp.invoke_export inst "run" [] : Value.t list);
  Alcotest.(check int) "merged mix = runs × one run's mix"
    (10 * Analyses.Instruction_mix.total ref_st)
    (Analyses.Instruction_mix.total merged)

let test_farm_fault_containment () =
  let res = instrumented trap_src in
  let stats =
    S.Farm.run ~domains:2 ~runs:6 ~entry:"run"
      ~make_analysis:(fun _ -> W.Analysis.default)
      res
  in
  Alcotest.(check int) "all runs served despite trapping" 6 stats.S.Farm.st_runs;
  Alcotest.(check int) "every trap contained by restore" 6 stats.S.Farm.st_faults

(* Every worker's analysis observes exactly the hook events of its own
   runs, in order: a worker serving k runs logs k copies of what one
   fresh instance logs for one run, contained traps included. *)
let test_farm_stream_faithful () =
  List.iter
    (fun (label, src) ->
       let res = instrumented src in
       let reference =
         let tr = Analyses.Trace.create () in
         let inst, _rt = W.Runtime.instantiate res (Analyses.Trace.analysis tr) in
         (try ignore (Interp.invoke_export inst "run" [] : Value.t list)
          with e when S.Farm.is_contained e -> ());
         Analyses.Trace.to_log tr
       in
       Alcotest.(check bool) (label ^ ": one run logs events") true (reference <> "");
       let traces = Array.init 2 (fun _ -> Analyses.Trace.create ()) in
       let stats =
         S.Farm.run ~domains:2 ~runs:6 ~entry:"run"
           ~make_analysis:(fun w -> Analyses.Trace.analysis traces.(w))
           res
       in
       Alcotest.(check int) (label ^ ": every run served") 6 stats.S.Farm.st_runs;
       (* static sharding: 6 runs over 2 workers is 3 each *)
       Array.iteri
         (fun w tr ->
            Alcotest.(check string)
              (Printf.sprintf "%s: worker %d log = 3 × one fresh run's log" label w)
              (String.concat "\n" (List.init 3 (fun _ -> reference)))
              (Analyses.Trace.to_log tr))
         traces)
    [ ("workload", workload_src); ("trap", trap_src) ]

(* ------------------------------------------------------------------ *)
(* Sharded fuzzing determinism                                         *)
(* ------------------------------------------------------------------ *)

let test_fuzz_jobs_determinism () =
  let campaign jobs =
    Fuzz.Harness.run ~jobs ~seed:Fuzz.Harness.default_seed ~gen_count:20 ~mut_count:20 ()
  in
  let s1, f1 = campaign 1 in
  let s3, f3 = campaign 3 in
  Alcotest.(check bool) "stats identical for any job count" true (s1 = s3);
  Alcotest.(check bool) "failures identical for any job count" true (f1 = f3)

(* ------------------------------------------------------------------ *)
(* Domain-safe observability                                           *)
(* ------------------------------------------------------------------ *)

let test_metrics_parallel_exactness () =
  let registry = Obs.Metrics.create () in
  let c = Obs.Metrics.counter ~registry ~help:"t" "par_counter" in
  let h = Obs.Metrics.histogram ~registry ~help:"t" "par_hist" in
  let doms =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 25_000 do
              Obs.Metrics.inc c
            done;
            for _ = 1 to 1_000 do
              Obs.Metrics.observe h 0.001
            done))
  in
  Array.iter Domain.join doms;
  Alcotest.(check (float 0.0)) "no lost counter increments" 100_000.0
    (Obs.Metrics.counter_value c);
  Alcotest.(check int) "no lost histogram observations" 4_000
    (Obs.Metrics.histogram_count h)

let test_span_parallel_nesting () =
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.set_enabled false;
      Obs.Span.reset ())
    (fun () ->
       let doms =
         Array.init 4 (fun _ ->
             Domain.spawn (fun () ->
                 for _ = 1 to 50 do
                   Obs.Span.with_ "outer" (fun () -> Obs.Span.with_ "inner" (fun () -> ()))
                 done))
       in
       Array.iter Domain.join doms;
       let evs = Obs.Span.events () in
       Alcotest.(check int) "every span recorded" 400 (List.length evs);
       List.iter
         (fun (ev : Obs.Span.event) ->
            let expected = if ev.Obs.Span.ev_name = "inner" then 1 else 0 in
            Alcotest.(check int)
              ("per-domain nesting depth for " ^ ev.Obs.Span.ev_name)
              expected ev.Obs.Span.ev_depth)
         evs)

let test_profile_merge () =
  let p1 = Obs.Profile.create () in
  let p2 = Obs.Profile.create () in
  Obs.Profile.count ~by:2 p1 "a";
  Obs.Profile.add_time p1 "t" 5L;
  Obs.Profile.count ~by:3 p2 "a";
  Obs.Profile.count p2 "b";
  Obs.Profile.add_time p2 "t" 7L;
  Obs.Profile.merge ~into:p1 p2;
  let counters = List.sort compare (Obs.Profile.counter_list p1) in
  Alcotest.(check (list (pair string int))) "counters summed" [ ("a", 5); ("b", 1) ] counters;
  match Obs.Profile.timer_list p1 with
  | [ ("t", n, total) ] ->
    Alcotest.(check int) "timer count summed" 2 n;
    Alcotest.(check int64) "timer total summed" 12L total
  | other -> Alcotest.failf "unexpected timers (%d entries)" (List.length other)

let test_instruction_mix_merge () =
  let res = instrumented workload_src in
  let _tmpl, template = W.Runtime.instantiate res W.Analysis.default in
  let run_with analysis =
    let inst, _rt = W.Runtime.fork template analysis in
    ignore (Interp.invoke_export inst "run" [] : Value.t list)
  in
  (* one state observing two runs ... *)
  let both, analysis_both = mix () in
  run_with analysis_both;
  run_with analysis_both;
  (* ... must equal two single-run states merged *)
  let a, analysis_a = mix () in
  let b, analysis_b = mix () in
  run_with analysis_a;
  run_with analysis_b;
  Analyses.Instruction_mix.merge ~into:a b;
  Alcotest.(check int) "merged total" (Analyses.Instruction_mix.total both)
    (Analyses.Instruction_mix.total a);
  Alcotest.(check (list (pair string int))) "merged per-opcode counts"
    (Analyses.Instruction_mix.sorted both)
    (Analyses.Instruction_mix.sorted a)

let suite =
  let case name f = Alcotest.test_case name `Quick f in
  [
    case "fork: isolation + equivalence" test_fork_isolation;
    case "snapshot: concurrent restore of one capture" test_concurrent_restore;
    case "farm: sync totals" test_farm_sync_totals;
    case "farm: fault containment" test_farm_fault_containment;
    case "farm: served event stream is faithful" test_farm_stream_faithful;
    case "fuzz: --jobs determinism" test_fuzz_jobs_determinism;
    case "metrics: parallel exactness" test_metrics_parallel_exactness;
    case "span: parallel nesting" test_span_parallel_nesting;
    case "profile: merge" test_profile_merge;
    case "instruction-mix: merge" test_instruction_mix_merge;
  ]
