(** Instrumenter correctness: instrumented modules validate, behave like
    the original (RQ2), and deliver the right events to the analysis API. *)

open Wasm
open Wasm.Ast
open Helpers
module B = Wasm.Builder
module W = Wasabi

let case name f = Alcotest.test_case name `Quick f

(* A module exercising many instruction kinds: arithmetic, locals,
   globals, memory, blocks, loops, branches, calls, i64, select, drop. *)
let rich_module () =
  let bld = B.create () in
  B.add_memory bld ~min_pages:1 ~max_pages:None;
  let g = B.add_global bld ~ty:Types.I32T ~mutable_:true ~init:(Value.I32 0l) in
  let helper = B.add_func bld ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.local_get 0; B.i32 3; B.i32_mul ]
  in
  let i64f = B.add_func bld ~params:[ Types.I64T ] ~results:[ Types.I64T ] ~locals:[]
      ~body:[ B.local_get 0; B.i64 0x1_0000_0001L; B.i64_mul ]
  in
  (* main: mixes everything; returns an i32 summary *)
  let body =
    (* store/load roundtrip *)
    [ B.i32 16; B.local_get 0; B.i32_store (); B.i32 16; B.i32_load () ]
    (* call helper *)
    @ [ Call helper ]
    (* loop: add 1..3 *)
    @ [ B.local_set 1; B.i32 3; B.local_set 2 ]
    @ B.block
        (B.loop
           ([ B.local_get 2; B.i32_eqz; BrIf 1 ]
            @ [ B.local_get 1; B.local_get 2; B.i32_add; B.local_set 1 ]
            @ [ B.local_get 2; B.i32 1; B.i32_sub; B.local_set 2; Br 0 ]))
    (* if/else with select and drop *)
    @ [ B.local_get 1; B.i32 10; B.i32_gt_s ]
    @ B.if_ ~result:Types.I32T
        ~then_:[ B.local_get 1; B.i32 100; B.i32 1; Select ]
        ~else_:[ B.i32 7; B.f64 3.5; Drop ]
        ()
    (* i64 round trip through a call *)
    @ [ B.i64 5L; Call i64f; Convert I32WrapI64; B.i32_add ]
    (* global update *)
    @ [ B.global_get g; B.i32_add; B.global_set g; B.global_get g ]
  in
  let f = B.add_func bld ~params:[ Types.I32T ] ~results:[ Types.I32T ]
      ~locals:[ Types.I32T; Types.I32T ] ~body
  in
  B.export_func bld ~name:"f" f;
  B.build bld

let br_table_module () =
  let bld = B.create () in
  let body =
    [ Block (Some Types.I32T);
      Block None;
      Block None;
      Block None;
      B.local_get 0;
      BrTable ([ 0; 1; 2 ], 2);
      End;
      B.i32 100; Br 2;
      End;
      B.i32 200; Br 1;
      End;
      B.i32 300;
      End ]
  in
  let f = B.add_func bld ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[] ~body in
  B.export_func bld ~name:"f" f;
  B.build bld

let instrument ?groups m =
  Validate.validate_module m;
  W.Instrument.instrument ?groups m

let run_instrumented ?analysis res name args =
  let analysis = Option.value analysis ~default:W.Analysis.default in
  let inst, _rt = W.Runtime.instantiate res analysis in
  Interp.invoke_export inst name args

(* --- validation of instrumented output ------------------------------- *)

let test_instrumented_validates () =
  let m = rich_module () in
  let res = instrument m in
  Validate.validate_module res.W.Instrument.instrumented;
  (* also after an encode/decode round trip *)
  let bin = Encode.encode res.W.Instrument.instrumented in
  Validate.validate_module (Decode.decode bin)

let test_br_table_validates () =
  let res = instrument (br_table_module ()) in
  Validate.validate_module res.W.Instrument.instrumented

let test_selective_validates () =
  let m = rich_module () in
  List.iter
    (fun g ->
       let res = instrument ~groups:(W.Hook.of_list [ g ]) m in
       try Validate.validate_module res.W.Instrument.instrumented
       with Validate.Invalid msg ->
         Alcotest.failf "group %s: invalid instrumented module: %s" (W.Hook.group_name g) msg)
    W.Hook.all_groups

(* --- faithfulness (RQ2) ---------------------------------------------- *)

let test_faithful_rich () =
  let m = rich_module () in
  let res = instrument m in
  List.iter
    (fun x ->
       let expected = Interp.invoke_export (Interp.instantiate ~imports:[] m) "f" [ i32 x ] in
       let actual = run_instrumented res "f" [ i32 x ] in
       check_values (Printf.sprintf "f(%d)" x) expected actual)
    [ 0; 1; 5; 42; -3 ]

let test_faithful_br_table () =
  let m = br_table_module () in
  let res = instrument m in
  List.iter
    (fun x ->
       let expected = Interp.invoke_export (Interp.instantiate ~imports:[] m) "f" [ i32 x ] in
       let actual = run_instrumented res "f" [ i32 x ] in
       check_values (Printf.sprintf "f(%d)" x) expected actual)
    [ 0; 1; 2; 3; 17 ]

let test_faithful_selective () =
  let m = rich_module () in
  let expected = Interp.invoke_export (Interp.instantiate ~imports:[] m) "f" [ i32 6 ] in
  List.iter
    (fun g ->
       let res = instrument ~groups:(W.Hook.of_list [ g ]) m in
       let actual = run_instrumented res "f" [ i32 6 ] in
       check_values (W.Hook.group_name g) expected actual)
    W.Hook.all_groups

let test_faithful_memory () =
  (* paper: Wasabi preserves the program's memory behaviour exactly *)
  let m = rich_module () in
  let res = instrument m in
  let inst0 = Interp.instantiate ~imports:[] m in
  ignore (Interp.invoke_export inst0 "f" [ i32 9 ]);
  let inst1, _ = W.Runtime.instantiate res W.Analysis.default in
  ignore (Interp.invoke_export inst1 "f" [ i32 9 ]);
  let bytes inst = Memory.to_string (Option.get inst.Interp.inst_memory) ~at:0 ~len:64 in
  Alcotest.(check string) "first 64 bytes of memory" (bytes inst0) (bytes inst1)

(* --- hook event delivery --------------------------------------------- *)

let events : string list ref = ref []
let record fmt = Printf.ksprintf (fun s -> events := s :: !events) fmt
let reset () = events := []
let got () = List.rev !events

let test_const_hook () =
  reset ();
  let m =
    single_func ~params:[] ~results:[ Types.I32T ] ~locals:[]
      [ B.i32 7; B.i64 0x1_0000_0002L; Convert I32WrapI64; B.i32_add ]
  in
  let res = instrument ~groups:(W.Hook.of_list [ W.Hook.G_const ]) m in
  let analysis =
    { W.Analysis.default with const = (fun _ v -> record "const %s" (Value.to_string v)) }
  in
  ignore (run_instrumented ~analysis res "f" []);
  Alcotest.(check (list string)) "const events"
    [ "const i32:7"; "const i64:4294967298" ] (got ())

let test_binary_hook () =
  reset ();
  let m =
    single_func ~params:[] ~results:[ Types.I32T ] ~locals:[]
      [ B.i32 6; B.i32 7; B.i32_mul ]
  in
  let res = instrument ~groups:(W.Hook.of_list [ W.Hook.G_binary ]) m in
  let analysis =
    { W.Analysis.default with
      binary = (fun _ op a b r ->
        record "%s %s %s -> %s" op (Value.to_string a) (Value.to_string b) (Value.to_string r)) }
  in
  ignore (run_instrumented ~analysis res "f" []);
  Alcotest.(check (list string)) "binary events" [ "i32.mul i32:6 i32:7 -> i32:42" ] (got ())

let test_call_hooks () =
  reset ();
  let bld = B.create () in
  let g = B.add_func bld ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.local_get 0; B.i32 1; B.i32_add ]
  in
  let f = B.add_func bld ~params:[] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.i32 41; Call g ]
  in
  B.export_func bld ~name:"f" f;
  let m = B.build bld in
  let res = instrument ~groups:(W.Hook.of_list [ W.Hook.G_call ]) m in
  let analysis =
    { W.Analysis.default with
      call_pre = (fun loc callee args ti ->
        record "pre %s -> func %d args [%s] indirect=%b" (W.Location.to_string loc) callee
          (String.concat ";" (List.map Value.to_string args))
          (ti <> None));
      call_post = (fun _ results ->
        record "post [%s]" (String.concat ";" (List.map Value.to_string results))) }
  in
  let r = run_instrumented ~analysis res "f" [] in
  check_values "result" [ i32 42 ] r;
  Alcotest.(check (list string)) "call events"
    [ "pre 1:1 -> func 0 args [i32:41] indirect=false"; "post [i32:42]" ] (got ())

let test_indirect_call_resolution () =
  reset ();
  let bld = B.create () in
  let double = B.add_func bld ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.local_get 0; B.i32 2; B.i32_mul ]
  in
  let square = B.add_func bld ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.local_get 0; B.local_get 0; B.i32_mul ]
  in
  B.add_table bld ~min_size:2 ~max_size:None;
  B.add_elem bld ~offset:0 ~funcs:[ double; square ];
  let ti = B.add_type bld (Types.func_type [ Types.I32T ] [ Types.I32T ]) in
  let f = B.add_func bld ~params:[ Types.I32T; Types.I32T ] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.local_get 1; B.local_get 0; CallIndirect ti ]
  in
  B.export_func bld ~name:"f" f;
  let m = B.build bld in
  let res = instrument ~groups:(W.Hook.of_list [ W.Hook.G_call ]) m in
  let analysis =
    { W.Analysis.default with
      call_pre = (fun _ callee _ ti ->
        record "pre func=%d table=%s" callee
          (match ti with Some i -> string_of_int i | None -> "-")) }
  in
  let r = run_instrumented ~analysis res "f" [ i32 1; i32 5 ] in
  check_values "square(5)" [ i32 25 ] r;
  (* table index 1 resolves to the original index of [square] *)
  Alcotest.(check (list string)) "resolution"
    [ Printf.sprintf "pre func=%d table=1" square ] (got ())

let test_begin_end_balanced () =
  reset ();
  let m = rich_module () in
  let res = instrument ~groups:(W.Hook.of_list [ W.Hook.G_begin; W.Hook.G_end ]) m in
  let depth = ref 0 and max_depth = ref 0 and unbalanced = ref false in
  let analysis =
    { W.Analysis.default with
      begin_ = (fun _ _ -> incr depth; if !depth > !max_depth then max_depth := !depth);
      end_ = (fun _ _ _ -> decr depth; if !depth < 0 then unbalanced := true) }
  in
  ignore (run_instrumented ~analysis res "f" [ i32 4 ]);
  Alcotest.(check bool) "never negative" false !unbalanced;
  Alcotest.(check int) "balanced at exit" 0 !depth;
  Alcotest.(check bool) "saw nesting" true (!max_depth >= 3)

let test_branch_resolution () =
  reset ();
  (* block; loop; br_if 1 -> resolved target is the instruction after the
     block's end *)
  let body =
    [ Block None;  (* 0 *)
      Loop None;  (* 1 *)
      B.local_get 0;  (* 2 *)
      BrIf 1;  (* 3 -> resolved to 6 *)
      Br 0;  (* 4 -> resolved to 2 (loop header body) *)
      End;  (* 5 *)
      End;  (* 6 *)
      B.i32 1 ]
  in
  let m = single_func ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[] body in
  let res = instrument ~groups:(W.Hook.of_list [ W.Hook.G_br; W.Hook.G_br_if ]) m in
  let analysis =
    { W.Analysis.default with
      br = (fun loc t ->
        record "br at %s label %d -> %s" (W.Location.to_string loc) t.W.Metadata.label
          (W.Location.to_string t.W.Metadata.target_loc));
      br_if = (fun loc t cond ->
        record "br_if at %s label %d -> %s taken=%b" (W.Location.to_string loc)
          t.W.Metadata.label (W.Location.to_string t.W.Metadata.target_loc) cond) }
  in
  ignore (run_instrumented ~analysis res "f" [ i32 1 ]);
  Alcotest.(check (list string)) "resolved targets"
    [ "br_if at 0:3 label 1 -> 0:7 taken=true" ] (got ());
  reset ();
  (* not taken once, loops back once, then exits *)
  let inst, _ = W.Runtime.instantiate res
      { W.Analysis.default with
        br = (fun _ t -> record "br->%s" (W.Location.to_string t.W.Metadata.target_loc));
        br_if = (fun _ _ c -> record "br_if taken=%b" c) }
  in
  (* local 0 = 0 would loop forever; instead run with 1 again *)
  ignore (Interp.invoke_export inst "f" [ i32 1 ]);
  Alcotest.(check (list string)) "events" [ "br_if taken=true" ] (got ())

let test_end_hooks_on_branch () =
  reset ();
  (* br 1 out of a loop nested in a block: end hooks for loop and block
     must fire (Table 3, row 5) *)
  let body =
    [ Block None;  (* 0 *)
      Loop None;  (* 1 *)
      Br 1;  (* 2 *)
      End;  (* 3 *)
      End;  (* 4 *)
      B.i32 9 ]
  in
  let m = single_func ~params:[] ~results:[ Types.I32T ] ~locals:[] body in
  let res = instrument ~groups:(W.Hook.of_list [ W.Hook.G_begin; W.Hook.G_end ]) m in
  let analysis =
    { W.Analysis.default with
      begin_ = (fun loc k -> record "begin %s %s" (W.Hook.block_kind_name k) (W.Location.to_string loc));
      end_ = (fun loc k b ->
        record "end %s %s (begin %s)" (W.Hook.block_kind_name k) (W.Location.to_string loc)
          (W.Location.to_string b)) }
  in
  ignore (run_instrumented ~analysis res "f" []);
  Alcotest.(check (list string)) "begin/end sequence"
    [ "begin function 0:-1";
      "begin block 0:0";
      "begin loop 0:1";
      "end loop 0:3 (begin 0:1)";
      "end block 0:4 (begin 0:0)";
      "end function 0:6 (begin 0:-1)" ]
    (got ())

let test_br_table_end_hooks () =
  reset ();
  let m = br_table_module () in
  let res = instrument ~groups:(W.Hook.of_list [ W.Hook.G_br_table; W.Hook.G_end ]) m in
  let analysis =
    { W.Analysis.default with
      br_table = (fun _ targets default idx ->
        record "br_table idx=%d targets=%d default->%s" idx (Array.length targets)
          (W.Location.to_string default.W.Metadata.target_loc));
      end_ = (fun _ k _ -> record "end %s" (W.Hook.block_kind_name k)) }
  in
  ignore (run_instrumented ~analysis res "f" [ i32 1 ]);
  (* idx 1 jumps out of the two innermost blocks; execution then reaches
     "i32 200; br 1", which ends the remaining two blocks *)
  let evs = got () in
  Alcotest.(check bool) "br_table event first" true
    (match evs with e :: _ -> Helpers.contains e "br_table idx=1" | [] -> false);
  let ends = List.filter (fun e -> Helpers.contains e "end block") evs in
  Alcotest.(check int) "2 blocks ended by br_table + 2 by the br" 4 (List.length ends)

let test_i64_join () =
  reset ();
  let m =
    single_func ~params:[] ~results:[ Types.I64T ] ~locals:[]
      [ B.i64 (-2L); B.i64 3L; B.i64_mul ]
  in
  let res = instrument ~groups:(W.Hook.of_list [ W.Hook.G_binary ]) m in
  let analysis =
    { W.Analysis.default with
      binary = (fun _ op a b r ->
        record "%s %s %s -> %s" op (Value.to_string a) (Value.to_string b) (Value.to_string r)) }
  in
  let r = run_instrumented ~analysis res "f" [] in
  check_values "result intact" [ Value.I64 (-6L) ] r;
  Alcotest.(check (list string)) "negative i64 joined correctly"
    [ "i64.mul i64:-2 i64:3 -> i64:-6" ] (got ())

let test_load_store_hooks () =
  reset ();
  let m =
    single_func ~memory:1 ~params:[] ~results:[ Types.I32T ] ~locals:[]
      [ B.i32 4; B.i32 99; B.i32_store ~offset:12 (); B.i32 4; B.i32_load ~offset:12 () ]
  in
  let res = instrument ~groups:(W.Hook.of_list [ W.Hook.G_load; W.Hook.G_store ]) m in
  let analysis =
    { W.Analysis.default with
      load = (fun _ op (ma : W.Analysis.memarg) v ->
        record "load %s addr=%ld+%d %s" op ma.addr ma.offset (Value.to_string v));
      store = (fun _ op (ma : W.Analysis.memarg) v ->
        record "store %s addr=%ld+%d %s" op ma.addr ma.offset (Value.to_string v)) }
  in
  ignore (run_instrumented ~analysis res "f" []);
  Alcotest.(check (list string)) "memory events"
    [ "store i32.store addr=4+12 i32:99"; "load i32.load addr=4+12 i32:99" ] (got ())

let test_drop_select_hooks () =
  reset ();
  let m =
    single_func ~params:[] ~results:[ Types.F64T ] ~locals:[]
      [ B.i32 1; Drop;
        B.f64 1.5; B.f64 2.5; B.i32 0; Select ]
  in
  let res = instrument ~groups:(W.Hook.of_list [ W.Hook.G_drop; W.Hook.G_select ]) m in
  let analysis =
    { W.Analysis.default with
      drop = (fun _ v -> record "drop %s" (Value.to_string v));
      select = (fun _ c a b ->
        record "select %b %s %s" c (Value.to_string a) (Value.to_string b)) }
  in
  let r = run_instrumented ~analysis res "f" [] in
  check_values "select false -> second" [ f64 2.5 ] r;
  Alcotest.(check (list string)) "events"
    [ "drop i32:1"; "select false f64:0x1.8p+0 f64:0x1.4p+1" ] (got ())

let test_local_global_hooks () =
  reset ();
  let bld = B.create () in
  let g = B.add_global bld ~ty:Types.I64T ~mutable_:true ~init:(Value.I64 7L) in
  let f = B.add_func bld ~params:[ Types.I32T ] ~results:[ Types.I64T ] ~locals:[]
      ~body:[ B.local_get 0; Drop; B.global_get g ]
  in
  B.export_func bld ~name:"f" f;
  let m = B.build bld in
  let res = instrument ~groups:(W.Hook.of_list [ W.Hook.G_local; W.Hook.G_global ]) m in
  let analysis =
    { W.Analysis.default with
      local = (fun _ op i v -> record "%s %d %s" op i (Value.to_string v));
      global = (fun _ op i v -> record "%s %d %s" op i (Value.to_string v)) }
  in
  ignore (run_instrumented ~analysis res "f" [ i32 3 ]);
  Alcotest.(check (list string)) "events"
    [ "local.get 0 i32:3"; "global.get 0 i64:7" ] (got ())

let test_return_hook () =
  reset ();
  let m =
    single_func ~params:[] ~results:[ Types.I32T ] ~locals:[]
      [ Block None; B.i32 5; Return; End; B.i32 1 ]
  in
  let res = instrument ~groups:(W.Hook.of_list [ W.Hook.G_return; W.Hook.G_end ]) m in
  let analysis =
    { W.Analysis.default with
      return_ = (fun _ rs -> record "return [%s]" (String.concat ";" (List.map Value.to_string rs)));
      end_ = (fun _ k _ -> record "end %s" (W.Hook.block_kind_name k)) }
  in
  let r = run_instrumented ~analysis res "f" [] in
  check_values "returned 5" [ i32 5 ] r;
  Alcotest.(check (list string)) "return + all ends"
    [ "return [i32:5]"; "end block"; "end function" ] (got ())

let test_monomorphization_on_demand () =
  (* hooks are generated only for type variants present in the module *)
  let m =
    single_func ~params:[] ~results:[ Types.I32T ] ~locals:[]
      [ B.i32 1; Drop; B.i32 2; Drop; B.f64 1.0; Drop; B.i32 0 ]
  in
  let res = instrument ~groups:(W.Hook.of_list [ W.Hook.G_drop ]) m in
  let specs = res.W.Instrument.metadata.W.Metadata.hook_specs in
  let drops =
    Array.to_list specs
    |> List.filter (function W.Hook.S_drop _ -> true | _ -> false)
  in
  (* i32 used twice but one hook; f64 once; i64/f32 never -> absent *)
  Alcotest.(check int) "two drop variants" 2 (List.length drops)

let test_unreachable_code_skipped () =
  (* code after an unconditional branch is dead; instrumentation must not
     produce an invalid module *)
  let body =
    [ Block None; Br 0; B.i32 1; Drop; End; B.i32 3 ]
  in
  let m = single_func ~params:[] ~results:[ Types.I32T ] ~locals:[] body in
  let res = instrument m in
  Validate.validate_module res.W.Instrument.instrumented;
  check_values "still works" [ i32 3 ] (run_instrumented res "f" [])

let test_if_hook () =
  reset ();
  let m =
    single_func ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[]
      ([ B.local_get 0 ] @ B.if_ ~result:Types.I32T ~then_:[ B.i32 1 ] ~else_:[ B.i32 2 ] ())
  in
  let res = instrument ~groups:(W.Hook.of_list [ W.Hook.G_if ]) m in
  let analysis = { W.Analysis.default with if_ = (fun _ c -> record "if %b" c) } in
  let r = run_instrumented ~analysis res "f" [ i32 0 ] in
  check_values "else branch" [ i32 2 ] r;
  Alcotest.(check (list string)) "events" [ "if false" ] (got ())

let test_instrument_module_with_imports () =
  (* original imports keep their indices; hook imports slot in between;
     call_pre reports the imported callee's original index *)
  reset ();
  let bld = B.create () in
  let log = B.import_func bld ~module_name:"env" ~name:"log"
      ~params:[ Types.I32T ] ~results:[ Types.I32T ]
  in
  let helper = B.add_func bld ~params:[ Types.I32T ] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.local_get 0; B.i32 1; B.i32_add ]
  in
  let f = B.add_func bld ~params:[] ~results:[ Types.I32T ] ~locals:[]
      ~body:[ B.i32 5; Call log; Call helper ]
  in
  B.export_func bld ~name:"f" f;
  let m = B.build bld in
  Validate.validate_module m;
  let res = instrument m in
  Validate.validate_module res.W.Instrument.instrumented;
  let analysis =
    { W.Analysis.default with
      call_pre = (fun _ callee _ _ -> record "call func=%d" callee) }
  in
  let rt = W.Runtime.create res analysis in
  let ext =
    Interp.host_func ~name:"log" ~params:[ Types.I32T ] ~results:[ Types.I32T ]
      (function [ Value.I32 x ] -> [ Value.I32 (Int32.mul x 10l) ] | _ -> assert false)
  in
  let inst =
    Interp.instantiate
      ~imports:(W.Runtime.imports rt @ [ ("env", "log", ext) ])
      res.W.Instrument.instrumented
  in
  rt.W.Runtime.instance <- Some inst;
  check_values "5 *10 +1" [ i32 51 ] (Interp.invoke_export inst "f" []);
  (* callee indices are reported in the ORIGINAL index space *)
  Alcotest.(check (list string)) "call events"
    [ Printf.sprintf "call func=%d" log; Printf.sprintf "call func=%d" helper ]
    (got ())

(* Each function body with every hook call replaced by the hook's spec:
   hook ordinals depend on scheduling under [~domains], the specs do not. *)
let bodies_by_spec (r : W.Instrument.result) =
  let md = r.W.Instrument.metadata in
  let n_imp = md.W.Metadata.num_original_func_imports in
  let h = md.W.Metadata.num_hooks in
  List.map
    (fun (f : func) ->
       ( f.locals,
         List.map
           (function
             | Call k when k >= n_imp && k < n_imp + h ->
               Either.Left md.W.Metadata.hook_specs.(k - n_imp)
             | i -> Either.Right i)
           f.body ))
    r.W.Instrument.instrumented.funcs

let test_parallel_instrumentation () =
  (* functions instrumented across 2 and 4 domains: hook ordinals may
     differ from serial, but once every hook call is mapped to its spec
     each function body must be the serial one, and behaviour is kept *)
  let corpus = Workloads.Corpus.make () in
  let m =
    Bench_support.Support.replicate_module
      (Workloads.Corpus.find corpus "pdfkit").Workloads.Corpus.module_ ~copies:19
  in
  Validate.validate_module m;
  let serial = W.Instrument.instrument m in
  let serial_bodies = bodies_by_spec serial in
  let run res =
    let inst, _ = W.Runtime.instantiate res W.Analysis.default in
    Interp.invoke_export inst "run" []
  in
  let expected = run serial in
  List.iter
    (fun domains ->
       let parallel = W.Instrument.instrument ~domains m in
       Validate.validate_module parallel.W.Instrument.instrumented;
       Alcotest.(check int)
         (Printf.sprintf "same number of hooks (%d domains)" domains)
         serial.W.Instrument.metadata.W.Metadata.num_hooks
         parallel.W.Instrument.metadata.W.Metadata.num_hooks;
       List.iteri
         (fun i (s, p) ->
            (* [compare], not [=]: a NaN constant is equal to itself here *)
            if compare s p <> 0 then
              Alcotest.failf "%d domains: function %d differs from the serial body" domains i)
         (List.combine serial_bodies (bodies_by_spec parallel));
       check_values
         (Printf.sprintf "parallel = serial behaviour (%d domains)" domains)
         expected (run parallel))
    [ 2; 4 ]

(* --- golden output -------------------------------------------------- *)

(* MD5 of the encoded instrumented module and of the br_table, fold and
   dead-skip metadata, per input and configuration. Recorded before the
   emission path was rewritten to allocate less; any change to the
   output bytes or to those records fails here. *)
let golden_configs =
  [ ("all", fun m -> W.Instrument.instrument m);
    ("call,return",
     fun m -> W.Instrument.instrument ~groups:(W.Hook.of_list [ W.Hook.G_call; W.Hook.G_return ]) m);
    ("nosplit", fun m -> W.Instrument.instrument ~split_i64:false m);
    ("fold", fun m -> W.Instrument.instrument ~fold:true m);
    ("prune", fun m -> W.Instrument.instrument ~prune_unreachable:true m) ]

let golden_digests =
  [
    (("pdfkit", "all"),
     ("665e25f7eacaedf6543fade8554f35ae", "ba5a95a61d92c7413fa5b792deb7f680"));
    (("pdfkit", "call,return"),
     ("71f197ea94d13d87e3cb7de2ee1f79dc", "fadef0279ec7f3cff05a989372ebb74d"));
    (("pdfkit", "nosplit"),
     ("83d1d675d8b0c6e65bd89e27cb66d907", "ba5a95a61d92c7413fa5b792deb7f680"));
    (("pdfkit", "fold"),
     ("4a235d0ade60edd7f944c80233688c45", "7de1a934856597ba92ce976e9627c622"));
    (("pdfkit", "prune"),
     ("9b6ef317e1dfb6340b45fdf1ee3a9b8c", "ba5a95a61d92c7413fa5b792deb7f680"));
    (("zen_garden", "all"),
     ("a8c532b8410e43142b8546beac288b73", "fadef0279ec7f3cff05a989372ebb74d"));
    (("zen_garden", "call,return"),
     ("6da26d1e9e4a467843bdb225d0c713e6", "fadef0279ec7f3cff05a989372ebb74d"));
    (("zen_garden", "nosplit"),
     ("2ad80bde1c37953d96190d239cbb03b6", "fadef0279ec7f3cff05a989372ebb74d"));
    (("zen_garden", "fold"),
     ("f6f2b334594c61c7684fd96b891d500d", "aa32210019ba3d1a626a6418ab44ffa4"));
    (("zen_garden", "prune"),
     ("32912198cff8300de309b707925c22bd", "fadef0279ec7f3cff05a989372ebb74d"));
    (("gemm", "all"),
     ("cd8de5d6e1a5b0cf7bc64c5067f0e2d0", "fadef0279ec7f3cff05a989372ebb74d"));
    (("gemm", "call,return"),
     ("5d42a9553794bbf1f6a02c3051f960d1", "fadef0279ec7f3cff05a989372ebb74d"));
    (("gemm", "nosplit"),
     ("cd8de5d6e1a5b0cf7bc64c5067f0e2d0", "fadef0279ec7f3cff05a989372ebb74d"));
    (("gemm", "fold"),
     ("22c30e40b55ef8c42a27c063f517e072", "1d4bf260b934e5b6aec0289ab46e86c5"));
    (("gemm", "prune"),
     ("cd8de5d6e1a5b0cf7bc64c5067f0e2d0", "fadef0279ec7f3cff05a989372ebb74d"));
    (("atax", "all"),
     ("90a137b0dd7e943d3f8f69a4c9485852", "fadef0279ec7f3cff05a989372ebb74d"));
    (("atax", "call,return"),
     ("d370c3e7dd571f957eea9a2e49e7060f", "fadef0279ec7f3cff05a989372ebb74d"));
    (("atax", "nosplit"),
     ("90a137b0dd7e943d3f8f69a4c9485852", "fadef0279ec7f3cff05a989372ebb74d"));
    (("atax", "fold"),
     ("93207039e65047cae831332a4de3a058", "972573ad7ee319cb865ffb5b3428dea4"));
    (("atax", "prune"),
     ("90a137b0dd7e943d3f8f69a4c9485852", "fadef0279ec7f3cff05a989372ebb74d"));
    (("jacobi-2d", "all"),
     ("161f91ca22de94eacae84d565dd402dd", "fadef0279ec7f3cff05a989372ebb74d"));
    (("jacobi-2d", "call,return"),
     ("27e20d9ecc3ae1bb98b96a53e9f41540", "fadef0279ec7f3cff05a989372ebb74d"));
    (("jacobi-2d", "nosplit"),
     ("161f91ca22de94eacae84d565dd402dd", "fadef0279ec7f3cff05a989372ebb74d"));
    (("jacobi-2d", "fold"),
     ("a520f6040bb96fc2e40edfd9838758f1", "d854a8b5228cbf9400489bb642fe6d7d"));
    (("jacobi-2d", "prune"),
     ("161f91ca22de94eacae84d565dd402dd", "fadef0279ec7f3cff05a989372ebb74d"));
    (("pdfkit x100", "all"),
     ("08b8d78c86800fb8eee1a634c53d0675", "5c3b0f0a93691e9314942702c2432ba7"));
  ]

let metadata_digest (md : W.Metadata.t) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( W.Location.Map.bindings md.W.Metadata.br_tables,
            md.W.Metadata.folded,
            md.W.Metadata.dead_skipped )
          [ Marshal.No_sharing ]))

let test_golden_output () =
  let corpus = Workloads.Corpus.make () in
  let input name = (Workloads.Corpus.find corpus name).Workloads.Corpus.module_ in
  let pdfkit_x100 = Bench_support.Support.replicate_module (input "pdfkit") ~copies:99 in
  let cases =
    List.concat_map
      (fun name -> List.map (fun (cfg, f) -> (name, cfg, fun () -> f (input name))) golden_configs)
      [ "pdfkit"; "zen_garden"; "gemm"; "atax"; "jacobi-2d" ]
    @ [ ("pdfkit x100", "all", fun () -> W.Instrument.instrument pdfkit_x100) ]
  in
  let bad =
    List.filter_map
      (fun (name, cfg, run) ->
         let r = run () in
         let got =
           ( Digest.to_hex (Digest.string (Encode.encode r.W.Instrument.instrumented)),
             metadata_digest r.W.Instrument.metadata )
         in
         match List.assoc_opt (name, cfg) golden_digests with
         | Some want when want = got -> None
         | _ -> Some (Printf.sprintf "    ((%S, %S), (%S, %S));" name cfg (fst got) (snd got)))
      cases
  in
  if bad <> [] then Alcotest.failf "golden digests differ:\n%s" (String.concat "\n" bad)

let test_export_names_preserved () =
  let m = rich_module () in
  let res = instrument m in
  let names = List.map (fun (e : export) -> e.name) res.W.Instrument.instrumented.exports in
  Alcotest.(check (list string)) "exports kept" [ "f" ] names

let suite =
  [
    case "instrumented module validates" test_instrumented_validates;
    case "br_table instrumentation validates" test_br_table_validates;
    case "every selective group validates" test_selective_validates;
    case "faithful: rich module" test_faithful_rich;
    case "faithful: br_table" test_faithful_br_table;
    case "faithful: per group" test_faithful_selective;
    case "faithful: memory contents" test_faithful_memory;
    case "const hook" test_const_hook;
    case "binary hook" test_binary_hook;
    case "call hooks" test_call_hooks;
    case "indirect call resolution" test_indirect_call_resolution;
    case "begin/end balanced" test_begin_end_balanced;
    case "branch target resolution" test_branch_resolution;
    case "end hooks on branch" test_end_hooks_on_branch;
    case "br_table end hooks" test_br_table_end_hooks;
    case "i64 split and join" test_i64_join;
    case "load/store hooks" test_load_store_hooks;
    case "drop/select hooks" test_drop_select_hooks;
    case "local/global hooks" test_local_global_hooks;
    case "return hook" test_return_hook;
    case "on-demand monomorphization" test_monomorphization_on_demand;
    case "dead code handled" test_unreachable_code_skipped;
    case "if hook" test_if_hook;
    case "module with imports" test_instrument_module_with_imports;
    case "parallel instrumentation" test_parallel_instrumentation;
    case "golden output" test_golden_output;
    case "exports preserved" test_export_names_preserved;
  ]
