(** End-to-end benchmark of the Wasabi pipeline.

    {v
    main.exe --workload NAME --seed N --seconds S --trace 0|1
    v}

    Four workloads (see README.md in this directory) run from the
    in-repo corpus only. After one timed set-up, operations run in
    seeded order, one round (a pass over the workload's inputs) at a
    time, until [--seconds] of measuring time have passed; further timed
    set-ups are spread between the rounds. Every operation is checked
    outside its timed region; a failed check counts into [failed]. The
    last line of standard output is one JSON object: [correct],
    [attempted], [failed] and [metrics] (end-to-end metrics with
    [--trace 0], per-layer metrics with [--trace 1]). The line before it
    stamps the run. *)

open Wasm
module W = Wasabi
module Corpus = Workloads.Corpus

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let div a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let geomean = function
  | [] -> 0.0
  | xs -> exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. fi (List.length xs))

(* set-up runs at least [min_setups] times, and at least [min_setup_s]
   seconds in all, spread over the run; setup_s is the median *)
let min_setups = 7
let max_setups = 25
let min_setup_s = 2.0

let domains = max 1 (min 2 (Domain.recommended_domain_count ()))

(* ------------------------------------------------------------------ *)
(* Deterministic counts                                                *)

(** Counts that must repeat exactly: per round in the loop, and across
    the repeated set-ups of one seed. *)
module Counts = struct
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 64

  let add k n = Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  let reset () = Hashtbl.reset tbl
  let snapshot () = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
end

(** Analysis time and events over traced work (every domain's
    accumulator is merged in here once its operation ends). *)
let analysis_total = ref (Counting.create ~timed:true)

(** Wrap an analysis with a timed counter when tracing. *)
let with_acc (an : W.Analysis.t) =
  if !Trace.enabled then begin
    let acc = Counting.create ~timed:true in
    (Counting.wrap acc an, Some acc)
  end
  else (an, None)

let settle = function
  | None -> ()
  | Some (acc : Counting.acc) ->
    Counting.add_into ~into:!analysis_total acc;
    Array.iteri
      (fun i c ->
         if c > 0 then
           Counts.add ("analysis.events." ^ W.Hook.group_name Counting.groups.(i)) c)
      acc.counts

(* ------------------------------------------------------------------ *)
(* Programs and analyses                                               *)

type result = Mix of (string * int) list | Edges of (int * int) list

type kind = {
  groups : W.Hook.Group_set.t;
  spec : string;  (** the same groups as an engine-probe spec *)
  make : unit -> W.Analysis.t * (unit -> result);
}

let instruction_mix =
  { groups = Analyses.Instruction_mix.groups;
    spec = "all";
    make =
      (fun () ->
         let t = Analyses.Instruction_mix.create () in
         ( Analyses.Instruction_mix.analysis t,
           fun () -> Mix (List.sort compare (Analyses.Instruction_mix.sorted t)) )) }

let call_graph =
  { groups = Analyses.Call_graph.groups;
    spec = "call";
    make =
      (fun () ->
         let t = Analyses.Call_graph.create () in
         ( Analyses.Call_graph.analysis t,
           fun () -> Edges (List.sort compare (Analyses.Call_graph.edges t)) )) }

type prog = {
  name : string;
  tag : string;  (** replication size, ["x1"] for the program itself *)
  bytes : string;  (** the original .wasm *)
  module_ : Ast.module_;
  static_instrs : int;
  checksum : int64;  (** bits of the uninstrumented result; x1 only *)
  steps : int;  (** uninstrumented retired instructions; x1 only *)
}

let bits_of_run name = function
  | [ Value.F64 x ] -> Int64.bits_of_float x
  | _ -> fail "%s: run did not return one f64" name

let make_prog ?(tag = "x1") name (m : Ast.module_) =
  let checksum, steps =
    if tag = "x1" then begin
      let inst = Interp.instantiate ~imports:[] m in
      let bits = bits_of_run name (Interp.invoke_export inst "run" []) in
      (bits, inst.Interp.steps)
    end
    else (0L, 0)
  in
  { name; tag; bytes = Encode.encode m; module_ = m;
    static_instrs = List.fold_left (fun a (f : Ast.func) -> a + List.length f.Ast.body) 0 m.Ast.funcs;
    checksum; steps }

let label p = p.name ^ "@" ^ p.tag

let check_bits p bits =
  if bits <> p.checksum then
    fail "%s: checksum %Lx differs from the uninstrumented reference %Lx" (label p) bits
      p.checksum

(* ------------------------------------------------------------------ *)
(* Calls into the pipeline, each under its own span                    *)

let decode p =
  Trace.span "decode" ~work:(String.length p.bytes) (fun () -> Decode.decode p.bytes)

let validate p m =
  Trace.span "validate" ~work:(String.length p.bytes) (fun () -> Validate.validate_module m)

let instrument p groups m =
  let r =
    Trace.span "instrument" ~tag:p.tag ~work:(String.length p.bytes) (fun () ->
        W.Instrument.instrument ~groups m)
  in
  Counts.add "instrument.hooks" (W.Hook.Map.count r.W.Instrument.hook_map);
  r

let encode m =
  let s = Trace.span "encode" (fun () -> let s = Encode.encode m in Trace.credit (String.length s); s) in
  Counts.add "instrument.out_bytes" (String.length s);
  s

(** Invoke [run]; returns the result bits and the retired instructions. *)
let exec ?acc p inst =
  let s0 = inst.Interp.steps in
  let inner = Option.map Counting.inner acc in
  let res =
    Trace.span "interp.exec" ?inner (fun () ->
        let r = Interp.invoke_export inst "run" [] in
        Trace.credit (inst.Interp.steps - s0);
        r)
  in
  let steps = inst.Interp.steps - s0 in
  Counts.add "interp.exec.steps" steps;
  (bits_of_run (label p) res, steps)

let runtime_instantiate r an =
  Trace.span "runtime.instantiate" (fun () -> W.Runtime.instantiate r an)

(** The engine-probe backend on [m]: returns (bits, steps). *)
let probe_run ?acc kind p m an =
  let inst =
    Trace.span "interp.instantiate" (fun () -> Interp.instantiate ~fuel:max_int ~imports:[] m)
  in
  let c = Trace.span "probe.create" (fun () -> W.Runtime.Probe.create inst an) in
  (match Trace.span "probe.attach" (fun () -> W.Runtime.Probe.attach_spec c kind.spec) with
   | Ok _ -> ()
   | Error e -> fail "%s: probe spec %S: %s" (label p) kind.spec e);
  exec ?acc p inst

let farm ~runs ~make_analysis (r : W.Instrument.result) =
  let st =
    Trace.span "farm" ~work:runs (fun () ->
        Serve.Farm.run ~mode:Serve.Farm.Sync ~domains ~runs ~entry:"run" ~make_analysis r)
  in
  Counts.add "farm.runs" st.Serve.Farm.st_runs;
  Counts.add "farm.faults" st.Serve.Farm.st_faults;
  if st.Serve.Farm.st_faults > 0 then fail "farm: %d contained faults" st.Serve.Farm.st_faults;
  if st.Serve.Farm.st_runs <> runs then fail "farm: served %d of %d runs" st.Serve.Farm.st_runs runs

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

(** What one operation did: its timed, host-scaled CPU time ({!Host.measure}) and
    the work in it. *)
type outcome = {
  ns : int;
  bytes : int;  (** input .wasm bytes *)
  instrs : int;  (** original-program instructions: retired, or rewritten *)
  runs : int;  (** completed runs: modules, programs or served runs *)
  out_bytes : int;  (** bytes of the module the engine runs or the rewriter emits *)
}

type op = { op_label : string; run : unit -> outcome }

type backend = Aot | Probe

type ctx = {
  ops : op list;  (** one round *)
  kind : kind;
  backend : backend;
  sweep_progs : prog list;  (** x1 programs for the traced layer sweep *)
  signature : (string * int) list;  (** counts the set-up established *)
}

let sizes = [ (0, "x1"); (99, "x100"); (399, "x400") ]

let sig_of_acc prefix (acc : Counting.acc) =
  Array.to_list
    (Array.mapi (fun i c -> (prefix ^ ".events." ^ W.Hook.group_name Counting.groups.(i), c)) acc.counts)

(* instrument-large: bytes -> decode -> validate -> instrument -> encode *)

let setup_instrument_large _rng =
  let corpus = Corpus.make () in
  let progs =
    List.concat_map
      (fun (e : Corpus.entry) ->
         List.map
           (fun (copies, tag) ->
              let m =
                if copies = 0 then e.Corpus.module_
                else Bench_support.Support.replicate_module e.Corpus.module_ ~copies
              in
              make_prog ~tag e.Corpus.name m)
           sizes)
      (Corpus.realworld corpus)
  in
  (* the first output of each input gets the full check; later outputs
     must be byte-identical to it *)
  let verified : (string, string * int) Hashtbl.t = Hashtbl.create 8 in
  let sig_ = ref [] in
  let full_check p out (r : W.Instrument.result) =
    Validate.validate_module (Decode.decode out);
    if p.tag = "x1" then begin
      let acc = Counting.create ~timed:false in
      let inst, _ = W.Runtime.instantiate r (Counting.wrap acc W.Analysis.default) in
      let bits = bits_of_run (label p) (Interp.invoke_export inst "run" []) in
      check_bits p bits;
      sig_ :=
        !sig_
        @ [ (label p ^ ".steps", p.steps); (label p ^ ".instrumented_steps", inst.Interp.steps) ]
        @ sig_of_acc (label p) acc
    end
  in
  let op p =
    { op_label = label p;
      run =
        (fun () ->
           Trace.next_op ();
           let (r, out), ns =
             Host.measure (fun () ->
                 let m = decode p in
                 validate p m;
                 let r = instrument p W.Hook.all m in
                 (r, encode r.W.Instrument.instrumented))
           in
           let hooks = W.Hook.Map.count r.W.Instrument.hook_map in
           (match Hashtbl.find_opt verified (label p) with
            | Some (out0, hooks0) ->
              if out <> out0 || hooks <> hooks0 then
                fail "%s: output differs from the first output of this input" (label p)
            | None ->
              full_check p out r;
              Hashtbl.replace verified (label p) (out, hooks));
           { ns; bytes = String.length p.bytes; instrs = p.static_instrs; runs = 1;
             out_bytes = String.length out }) }
  in
  let ops = List.map op progs in
  (* warm-up: the x1 inputs, which also verifies them *)
  List.iter (fun o -> if Filename.check_suffix o.op_label "@x1" then ignore (o.run ())) ops;
  let x1 = List.filter (fun p -> p.tag = "x1") progs in
  { ops; kind = instruction_mix; backend = Aot; sweep_progs = x1;
    signature =
      !sig_
      @ List.concat_map
          (fun p ->
             let out, hooks = Hashtbl.find verified (label p) in
             [ (label p ^ ".hooks", hooks); (label p ^ ".out_bytes", String.length out) ])
          x1 }

(* analyze-aot / analyze-probe: bytes -> result on pdfkit and zen_garden *)

let realworld_programs rng =
  let near d spread = d - spread + Random.State.int rng ((2 * spread) + 1) in
  let doc_len = near 1200 24 and verts = near 50 1 and particles = near 30 1 in
  [ make_prog "pdfkit" (Minic.Mc_compile.compile (Workloads.Realworld.pdfkit ~doc_len ()));
    make_prog "zen_garden"
      (Minic.Mc_compile.compile (Workloads.Realworld.zen_garden ~verts ~particles ~frames:4 ())) ]

(** The AOT path: returns (bits, steps, instrumentation result). *)
let aot_path ?acc kind p an =
  let m = decode p in
  validate p m;
  let r = instrument p kind.groups m in
  let inst, _ = runtime_instantiate r an in
  Tier1.enable inst;
  let bits, steps = exec ?acc p inst in
  (bits, steps, r)

let probe_path ?acc kind p an =
  let m = decode p in
  validate p m;
  probe_run ?acc kind p m an

let setup_analyze backend rng =
  let kind = instruction_mix in
  let progs = realworld_programs rng in
  let sig_ = ref [] in
  let ops =
    List.map
      (fun p ->
         (* both backends once, counted: each is the other's reference *)
         let aot_acc = Counting.create ~timed:false and probe_acc = Counting.create ~timed:false in
         let an, get = kind.make () in
         let abits, asteps, r = aot_path kind p (Counting.wrap aot_acc an) in
         let aot_result = get () in
         let hooks = W.Hook.Map.count r.W.Instrument.hook_map in
         let an, pget = kind.make () in
         let pbits, psteps = probe_path kind p (Counting.wrap probe_acc an) in
         let probe_result = pget () in
         check_bits p abits;
         check_bits p pbits;
         if aot_result <> probe_result then
           fail "%s: AOT and engine-probe analysis results differ" (label p);
         let out_bytes = Encode.size r.W.Instrument.instrumented in
         sig_ :=
           !sig_
           @ [ (label p ^ ".steps", p.steps); (label p ^ ".aot_steps", asteps);
               (label p ^ ".probe_steps", psteps); (label p ^ ".hooks", hooks);
               (label p ^ ".out_bytes", out_bytes) ]
           @ sig_of_acc (label p ^ ".aot") aot_acc
           @ sig_of_acc (label p ^ ".probe") probe_acc;
         let run () =
           Trace.next_op ();
           let an, get = kind.make () in
           let an, acc = with_acc an in
           let (bits, steps, expect_steps, reference, out), ns =
             Host.measure (fun () ->
                 match backend with
                 | Aot ->
                   let bits, steps, _ = aot_path ?acc kind p an in
                   (bits, steps, asteps, probe_result, out_bytes)
                 | Probe ->
                   let bits, steps = probe_path ?acc kind p an in
                   (bits, steps, psteps, aot_result, String.length p.bytes))
           in
           settle acc;
           check_bits p bits;
           if steps <> expect_steps then
             fail "%s: retired %d instructions, set-up counted %d" (label p) steps expect_steps;
           if get () <> reference then
             fail "%s: analysis result differs from the other backend's" (label p);
           { ns; bytes = String.length p.bytes; instrs = p.steps; runs = 1; out_bytes = out }
         in
         { op_label = label p; run })
      progs
  in
  { ops; kind; backend; sweep_progs = progs; signature = !sig_ }

(* serve-sparse: Farm.run batches of kernels with call and return hooks *)

let kernels_per_draw = 8
let balance = 0.02
let batch_runs = 128

(** The call graph, plus the [return] hook: a PolyBench kernel is one
    function with one [return], so the hook fires once per run and
    reports that run's checksum, while call hooks never fire. *)
let serve_kind =
  { groups = W.Hook.Group_set.add W.Hook.G_return call_graph.groups;
    spec = "call,return";
    make = call_graph.make }

type kernel = {
  kp : prog;
  res : W.Instrument.result;
  edges : result;  (** the engine-probe backend's call graph *)
  events : int;  (** hook events per run *)
}

(** Wrap [an] so that its [return] hook checks each reported result
    against [p]'s checksum; returns the wrapped analysis and a function
    giving (returns seen, returns with another value). *)
let checking_returns p (an : W.Analysis.t) =
  let seen = ref 0 and wrong = ref 0 in
  let return_ loc rs =
    incr seen;
    (match rs with
     | [ Value.F64 x ] when Int64.bits_of_float x = p.checksum -> ()
     | _ -> incr wrong);
    an.W.Analysis.return_ loc rs
  in
  ({ an with W.Analysis.return_ }, fun () -> (!seen, !wrong))

(** One run the way a farm worker serves it: fork the template, capture
    a snapshot, restore it, invoke [run]. Returns (bits, steps). *)
let worker_run p template an =
  let inst, _ = W.Runtime.fork template an in
  let snap = Snapshot.capture inst in
  Snapshot.restore snap inst;
  let s0 = inst.Interp.steps in
  let bits = bits_of_run (label p) (Interp.invoke_export inst "run" []) in
  (bits, inst.Interp.steps - s0)

let setup_serve rng =
  let kind = serve_kind in
  (* retired instructions per run range from 3.4k to 266k over the 30
     kernels at the corpus size, so an unconstrained draw of 8 moves
     runs/s by far more than a regression would (IQR/median of the mean
     over random draws: ~90%); 8 are drawn at random and redrawn until
     their mean .wasm size and mean retired instructions per run are
     within [balance] of the means over all 30 *)
  let all =
    Array.of_list
      (List.map (fun (e : Corpus.entry) -> make_prog e.Corpus.name e.Corpus.module_)
         (Corpus.polybench (Corpus.make ())))
  in
  let mean f ps = fi (Array.fold_left (fun a p -> a + f p) 0 ps) /. fi (Array.length ps) in
  let size (p : prog) = String.length p.bytes and steps (p : prog) = p.steps in
  let balanced d =
    Float.abs ((mean size d /. mean size all) -. 1.0) <= balance
    && Float.abs ((mean steps d /. mean steps all) -. 1.0) <= balance
  in
  let rec draw () =
    let a = Array.copy all in
    for i = 0 to kernels_per_draw - 1 do
      let j = i + Random.State.int rng (Array.length a - i) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    let d = Array.sub a 0 kernels_per_draw in
    if balanced d then Array.to_list d else draw ()
  in
  let drawn = draw () in
  let sig_ = ref [] in
  let kernels =
    List.map
      (fun p ->
         let name = p.name in
         (* instrument once, as [wasabi serve] does *)
         let m = Decode.decode p.bytes in
         Validate.validate_module m;
         let res = W.Instrument.instrument ~groups:kind.groups m in
         let an, get = kind.make () in
         let an, returns = checking_returns p an in
         let pbits, _ = probe_run kind p m an in
         check_bits p pbits;
         if returns () <> (1, 0) then
           fail "%s: the engine-probe return hook did not report the checksum once" name;
         let edges = get () in
         (* one run served the worker's way on this domain: checks the
            template, and counts the instrumented run *)
         let _, template = W.Runtime.instantiate res W.Analysis.default in
         let acc = Counting.create ~timed:false in
         let bits, instr_steps = worker_run p template (Counting.wrap acc W.Analysis.default) in
         check_bits p bits;
         let k = { kp = p; res; edges; events = Counting.total acc } in
         sig_ :=
           !sig_
           @ [ (name ^ ".steps", p.steps); (name ^ ".instrumented_steps", instr_steps);
               (name ^ ".hooks", W.Hook.Map.count res.W.Instrument.hook_map);
               (name ^ ".out_bytes", Encode.size res.W.Instrument.instrumented) ]
           @ sig_of_acc name acc;
         k)
      drawn
  in
  let batch k () =
    let runs = batch_runs in
    Trace.next_op ();
    let gets = Array.make domains (fun () -> Edges []) in
    let returns = Array.make domains (fun () -> (0, 0)) in
    let accs = Array.make domains None in
    let make_analysis w =
      let an, get = kind.make () in
      let an, ret = checking_returns k.kp an in
      let an, acc = with_acc an in
      gets.(w) <- get;
      returns.(w) <- ret;
      accs.(w) <- acc;
      an
    in
    let (), ns = Host.measure (fun () -> farm ~runs ~make_analysis k.res) in
    Array.iter settle accs;
    Array.iteri
      (fun w get ->
         if get () <> k.edges then
           fail "%s: worker %d call graph differs from the engine-probe backend's" k.kp.name w)
      gets;
    (* every served run reports its result through the return hook *)
    let seen, wrong =
      Array.fold_left (fun (s, x) ret -> let s', x' = ret () in (s + s', x + x')) (0, 0) returns
    in
    if wrong > 0 then fail "%s: %d served runs returned another checksum" k.kp.name wrong;
    if seen <> runs then fail "%s: %d of %d served runs reported a result" k.kp.name seen runs;
    (match accs.(0) with
     | Some _ ->
       let events = Array.fold_left (fun a -> function Some acc -> a + Counting.total acc | None -> a) 0 accs in
       if events <> runs * k.events then
         fail "%s: %d hook events, expected %d per run" k.kp.name events k.events
     | None -> ());
    let out = Encode.size k.res.W.Instrument.instrumented in
    { ns; bytes = runs * String.length k.kp.bytes; instrs = runs * k.kp.steps; runs;
      out_bytes = runs * out }
  in
  { ops = List.map (fun k -> { op_label = k.kp.name; run = batch k }) kernels;
    kind; backend = Aot; sweep_progs = List.map (fun k -> k.kp) kernels;
    signature = !sig_ }

let workloads =
  [ ("instrument-large", setup_instrument_large);
    ("analyze-aot", setup_analyze Aot);
    ("analyze-probe", setup_analyze Probe);
    ("serve-sparse", setup_serve) ]

(* ------------------------------------------------------------------ *)
(* The measured loop                                                   *)

(** The work in one round, or in a round-equivalent built from
    per-input medians. *)
type round = {
  mutable r_ns : int;
  mutable r_bytes : int;
  mutable r_instrs : int;
  mutable r_runs : int;
  mutable r_out : int;
  mutable r_samples : (string * outcome) list;
}

let empty_round () =
  { r_ns = 0; r_bytes = 0; r_instrs = 0; r_runs = 0; r_out = 0; r_samples = [] }

let add_outcome r label (out : outcome) =
  r.r_ns <- r.r_ns + out.ns;
  r.r_bytes <- r.r_bytes + out.bytes;
  r.r_instrs <- r.r_instrs + out.instrs;
  r.r_runs <- r.r_runs + out.runs;
  r.r_out <- r.r_out + out.out_bytes;
  r.r_samples <- (label, out) :: r.r_samples

let attempted = ref 0
let failed = ref 0

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let run_op o =
  incr attempted;
  match o.run () with
  | out -> Some out
  | exception Check_failed msg ->
    incr failed;
    Printf.eprintf "perfbench: FAILED %s\n%!" msg;
    None
  | exception e ->
    incr failed;
    Printf.eprintf "perfbench: FAILED %s: %s\n%!" o.op_label (Printexc.to_string e);
    None

exception Nondeterministic of string

(** Run whole rounds in seeded order until [seconds] of wall time have
    passed (at least [min_rounds]). With [check_counts], every round's
    deterministic counts must equal the first round's. *)
let loop ?(check_counts = false) ?(min_rounds = 1) ?(between = fun _ -> ()) ~rng ~seconds ops =
  let t_start = Trace.now () in
  let t_end = ref (t_start + int_of_float (seconds *. 1e9)) in
  let rounds = ref [] in
  let first = ref None in
  while List.length !rounds < min_rounds || Trace.now () < !t_end do
    let r = empty_round () in
    let before = Counts.snapshot () in
    List.iter
      (fun o ->
         (* start every operation from a collected heap, so the heap peak
            and the collector's pacing do not depend on earlier ones *)
         Gc.full_major ();
         match run_op o with Some out -> add_outcome r o.op_label out | None -> ())
      (shuffle rng ops);
    if check_counts then begin
      let after = Counts.snapshot () in
      let delta =
        List.map (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k before))) after
      in
      match !first with
      | None -> first := Some delta
      | Some d0 ->
        if d0 <> delta then
          raise (Nondeterministic "per-round counts differ between two rounds of one seed")
    end;
    rounds := r :: !rounds;
    (* work between rounds does not use up the measuring time *)
    let t0 = Trace.now () in
    between (div (fi (t0 - t_start)) (fi (!t_end - t_start)));
    t_end := !t_end + (Trace.now () - t0)
  done;
  List.rev !rounds

(* ------------------------------------------------------------------ *)
(* Statistics and output                                               *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let print_result ~correct metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (json_float m.m_value)
              m.m_unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed body

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter (fun m -> Printf.printf "  %-34s %16.6f %s\n" m.m_name m.m_value m.m_unit) metrics

(** A round-equivalent: every input's work once, at the median of that
    input's timed samples (already scaled to the host's speed by
    {!Host.measure}) across the run's rounds. *)
let summarize rounds =
  let by = Hashtbl.create 16 in
  List.iter
    (fun r ->
       List.iter
         (fun (label, (o : outcome)) ->
            let first, ns = Option.value ~default:(o, []) (Hashtbl.find_opt by label) in
            Hashtbl.replace by label (first, fi o.ns :: ns))
         r.r_samples)
    rounds;
  let r = empty_round () in
  Hashtbl.iter
    (fun label ((o : outcome), ns) ->
       add_outcome r label { o with ns = int_of_float (median ns) })
    by;
  r

let end_to_end ~setup_s ~peak_heap_words r =
  let ns = fi r.r_ns in
  [ metric "setup_s" "s" setup_s;
    metric "mb_per_s" "MB/s" (div (fi r.r_bytes *. 1e3) ns);
    metric "minstr_per_s" "Minstr/s" (div (fi r.r_instrs *. 1e3) ns);
    metric "runs_per_s" "runs/s" (div (fi r.r_runs *. 1e9) ns);
    metric "size_ratio" "x" (div (fi r.r_out) (fi r.r_bytes));
    metric "peak_heap_mb" "MB" (fi (peak_heap_words * (Sys.word_size / 8)) /. 1e6) ]

(* ------------------------------------------------------------------ *)
(* Traced run: layer sweep, overhead ratios, per-layer metrics         *)

(** Call every layer once on each sweep program, so layers the
    workload's timed path does not reach still get a figure measured on
    this workload's own inputs; with [replicas], also instrument x100 and
    x400 copies of the first program. *)
let sweep ~replicas ctx =
  let kind = ctx.kind in
  List.iter
    (fun p ->
       incr attempted;
       try
         Trace.next_op ();
         let m = decode p in
         validate p m;
         let r = instrument p kind.groups m in
         ignore (encode r.W.Instrument.instrumented);
         let an, _ = kind.make () in
         let an, acc = with_acc an in
         let inst, rt = runtime_instantiate r an in
         check_bits p (fst (exec ?acc p inst));
         let fresh, _ = runtime_instantiate r W.Analysis.default in
         let funcs = Trace.span "tier1.compile_all" (fun () -> Tier1.compile_all fresh) in
         Counts.add "tier1.compile_all.funcs" funcs;
         for _ = 1 to domains do
           let fork_i, _ = Trace.span "fork" (fun () -> W.Runtime.fork rt an) in
           let snap = Trace.span "snapshot.capture" (fun () -> Snapshot.capture fork_i) in
           for _ = 1 to 2 do
             Trace.span "snapshot.restore" (fun () -> Snapshot.restore snap fork_i);
             check_bits p (fst (exec ?acc p fork_i))
           done
         done;
         check_bits p (fst (probe_run ?acc kind p m an));
         settle acc;
         let accs = ref [] in
         farm ~runs:domains r ~make_analysis:(fun _ ->
             let an, acc = with_acc (fst (kind.make ())) in
             accs := acc :: !accs;
             an);
         List.iter settle !accs
       with
       | Check_failed msg ->
         incr failed;
         Printf.eprintf "perfbench: FAILED sweep %s\n%!" msg
       | e ->
         incr failed;
         Printf.eprintf "perfbench: FAILED sweep %s: %s\n%!" (label p) (Printexc.to_string e))
    ctx.sweep_progs;
  if replicas then
    match ctx.sweep_progs with
    | p :: _ ->
      List.iter
        (fun (copies, tag) ->
           if copies > 0 then begin
             let m = Bench_support.Support.replicate_module p.module_ ~copies in
             Trace.next_op ();
             (* recorded under instrument@SIZE only, so the layer's own
                totals stay one pass over the x1 programs *)
             ignore
               (Trace.span ("instrument@" ^ tag) ~work:(Encode.size m) (fun () ->
                    W.Instrument.instrument ~groups:kind.groups m))
           end)
        sizes
    | [] -> ()

(** Wall time of [iters] invocations of [run] on [inst]. *)
let time_runs inst iters =
  let t0 = Trace.now () in
  for _ = 1 to iters do
    ignore (Interp.invoke_export inst "run" [])
  done;
  fi (Trace.now () - t0)

(** Fig. 9 ratios: the workload's backend with the empty analysis,
    against the uninstrumented run, on tier 0 and on tier 1. Geometric
    mean over the sweep programs of the median of 3 paired ratios. *)
let overhead_ratios ctx =
  let ratios =
    List.map
      (fun p ->
         let plain () = Interp.instantiate ~fuel:max_int ~imports:[] p.module_ in
         let instrumented ~tier1 =
           match ctx.backend with
           | Aot ->
             let r = W.Instrument.instrument ~groups:ctx.kind.groups p.module_ in
             let inst, _ = W.Runtime.instantiate r W.Analysis.default in
             if tier1 then ignore (Tier1.compile_all inst);
             inst
           | Probe ->
             let inst = plain () in
             if tier1 then ignore (Tier1.compile_all inst);
             let c = W.Runtime.Probe.create inst W.Analysis.default in
             ignore (W.Runtime.Probe.attach_spec c ctx.kind.spec);
             inst
         in
         let p0 = plain () and p1 = plain () in
         ignore (Tier1.compile_all p1);
         let i0 = instrumented ~tier1:false and i1 = instrumented ~tier1:true in
         List.iter (fun i -> ignore (time_runs i 1)) [ p0; p1; i0; i1 ];
         let once = time_runs p0 1 in
         let iters = max 1 (int_of_float (div 2e7 once)) in
         let pair a b = median (List.init 3 (fun _ -> let tb = time_runs b iters in div (time_runs a iters) tb)) in
         (pair i0 p0, pair i1 p1))
      ctx.sweep_progs
  in
  (geomean (List.map fst ratios), geomean (List.map snd ratios))

(** Per-layer metrics. A layer the timed loop reached reports its
    per-round figure from the loop; any other layer reports its figure
    from the sweep. *)
let per_layer ~loop_agg ~loop_counts ~rounds ~loop_analysis ~sweep_agg ~sweep_counts
    ~sweep_analysis ~overhead ~trace_overhead_pct =
  (* the layer's spans, deterministic counts and divisor (rounds or one
     sweep pass) *)
  let pick name =
    match Hashtbl.find_opt loop_agg name with
    | Some (l : Trace.layer) when l.Trace.calls > 0 -> (l, loop_counts, fi rounds)
    | _ ->
      ( Option.value ~default:(Trace.empty_layer ()) (Hashtbl.find_opt sweep_agg name),
        sweep_counts, 1.0 )
  in
  let layer name = let l, _, _ = pick name in l in
  let count name key =
    let _, tbl, d = pick name in
    metric key "count" (fi (Option.value ~default:0 (List.assoc_opt key tbl)) /. d)
  in
  let common name =
    let l, _, d = pick name in
    [ metric (name ^ ".busy_s") "s" (fi l.Trace.self_ns /. 1e9 /. d);
      metric (name ^ ".calls") "count" (fi l.Trace.calls /. d) ]
  in
  let per_work name suffix unit l = metric (name ^ suffix) unit (div l.Trace.words (fi l.Trace.work)) in
  (* work units per microsecond: MB/s of bytes, Minstr/s of steps *)
  let rate name suffix unit l =
    metric (name ^ suffix) unit (div (fi l.Trace.work *. 1e3) (fi l.Trace.self_ns))
  in
  let bytes_layer name =
    let l = layer name in
    common name @ [ rate name ".mb_per_s" "MB/s" l; per_work name ".words_per_byte" "words/B" l ]
  in
  let us_per_kb tag =
    let l = layer ("instrument@" ^ tag) in
    metric ("instrument.us_per_kb." ^ tag) "us/KB"
      (div (fi l.Trace.self_ns /. 1e3) (fi l.Trace.work /. 1024.0))
  in
  let us name =
    let l, _, d = pick name in
    [ metric (name ^ ".us") "us" (div (fi l.Trace.self_ns /. 1e3) (fi l.Trace.calls));
      metric (name ^ ".calls") "count" (fi l.Trace.calls /. d) ]
  in
  let an, an_div =
    if Counting.total loop_analysis > 0 then (loop_analysis, fi rounds) else (sweep_analysis, 1.0)
  in
  bytes_layer "decode" @ bytes_layer "validate" @ bytes_layer "encode"
  @ common "instrument"
  @ List.map (fun (_, tag) -> us_per_kb tag) sizes
  @ [ per_work "instrument" ".words_per_byte" "words/B" (layer "instrument");
      count "instrument" "instrument.hooks"; count "encode" "instrument.out_bytes" ]
  @ common "runtime.instantiate" @ common "interp.instantiate"
  @ common "tier1.compile_all" @ [ count "tier1.compile_all" "tier1.compile_all.funcs" ]
  @ common "interp.exec"
  @ [ count "interp.exec" "interp.exec.steps";
      rate "interp.exec" ".minstr_per_s" "Minstr/s" (layer "interp.exec");
      per_work "interp.exec" ".words_per_step" "words/step" (layer "interp.exec") ]
  @ [ metric "analysis.busy_s" "s" (fi an.Counting.ns /. 1e9 /. an_div);
      metric "analysis.calls" "count" (fi (Counting.total an) /. an_div) ]
  @ Array.to_list
      (Array.mapi
         (fun i g ->
            metric ("analysis.events." ^ W.Hook.group_name g) "count"
              (fi an.Counting.counts.(i) /. an_div))
         Counting.groups)
  @ common "probe.create" @ common "probe.attach"
  @ common "farm" @ [ count "farm" "farm.runs"; count "farm" "farm.faults" ]
  @ common "fork" @ us "snapshot.capture" @ us "snapshot.restore"
  @ [ metric "overhead_x.t0" "x" (fst overhead); metric "overhead_x.t1" "x" (snd overhead);
      metric "trace.overhead_pct" "%" trace_overhead_pct ]

(* ------------------------------------------------------------------ *)
(* Stamp                                                               *)

(** The commit checked out, read from [.git]; ["none"] outside a git
    checkout. *)
let git_commit () =
  let read f =
    try Some (String.trim (In_channel.with_open_bin f In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | None -> "none"
  | Some head when not (String.starts_with ~prefix:"ref: " head) -> head
  | Some head ->
    let ref_ = String.sub head 5 (String.length head - 5) in
    let packed () =
      String.split_on_char '\n' (Option.value ~default:"" (read ".git/packed-refs"))
      |> List.find_map (fun l ->
          match String.split_on_char ' ' l with
          | [ sha; name ] when name = ref_ -> Some sha
          | _ -> None)
    in
    (match read (Filename.concat ".git" ref_) with
     | Some sha -> Some sha
     | None -> packed ())
    |> Option.value ~default:"none"

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | a :: _ -> Printf.eprintf "unknown argument %S\n" a; usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let setup =
    match List.assoc_opt !workload workloads with
    | Some s -> s
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let rng () = Random.State.make [| !seed; 0x5eed |] in
  try
    (* one timed set-up from the seed; every later one must establish
       the same counts *)
    let times = ref [] and first_sig = ref None in
    let setup_once () =
      let ctx, ns = Host.measure (fun () -> setup (rng ())) in
      times := (fi ns /. 1e9) :: !times;
      (match !first_sig with
       | None -> first_sig := Some ctx.signature
       | Some s ->
         if s <> ctx.signature then
           raise (Nondeterministic "set-up counts differ between two set-ups of one seed"));
      ctx
    in
    let ctx = setup_once () in
    let setups_target =
      max min_setups (min max_setups (int_of_float (ceil (div min_setup_s (List.hd !times)))))
    in
    (* the other set-ups are spread over the run, so setup_s does not
       hinge on one burst of interference *)
    let more_setups frac =
      while List.length !times < 1 + int_of_float (frac *. fi (setups_target - 1)) do
        ignore (setup_once ())
      done
    in
    let order = rng () in
    let counts_digest = Digest.to_hex (Digest.string (Marshal.to_string ctx.signature [])) in
    Printf.printf
      "{\"stamp\": {\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %d, \
       \"git_commit\": %S, \"nproc\": %d, \"recommended_domain_count\": %d, \
       \"ocaml_version\": %S, \"counts_digest\": %S}}\n%!"
      !workload !seed (json_float !seconds) !trace (git_commit ()) domains
      (Domain.recommended_domain_count ()) Sys.ocaml_version counts_digest;
    if !trace = 0 then begin
      (* the heap peak covers the first set-up and one pass over the
         inputs in set-up order, so it depends neither on the seeded
         order nor on how many rounds run before the next set-up *)
      List.iter (fun o -> Gc.full_major (); ignore (run_op o)) ctx.ops;
      let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
      let rounds = loop ~between:more_setups ~rng:order ~seconds:!seconds ctx.ops in
      more_setups 1.0;
      let metrics =
        end_to_end ~setup_s:(median !times) ~peak_heap_words
          (summarize rounds)
      in
      print_table
        (Printf.sprintf "%s: %d rounds, %d operations, fail_frac %.6f" !workload
           (List.length rounds) !attempted (div (fi !failed) (fi !attempted)))
        metrics;
      print_result ~correct:(!failed = 0) metrics
    end
    else begin
      ignore (setup_once ());
      let half = !seconds /. 2.0 in
      let round_ms rs = fi (summarize rs).r_ns /. 1e6 in
      let plain = loop ~rng:order ~seconds:half ctx.ops in
      Counts.reset ();
      Trace.reset ();
      analysis_total := Counting.create ~timed:true;
      Trace.enabled := true;
      let traced_rounds = loop ~check_counts:true ~min_rounds:2 ~rng:order ~seconds:half ctx.ops in
      let loop_agg = Trace.aggregate () in
      let loop_counts = Counts.snapshot () in
      let loop_analysis = !analysis_total in
      let loop_spans = !Trace.spans in
      Counts.reset ();
      Trace.reset ();
      analysis_total := Counting.create ~timed:true;
      sweep ~replicas:(not (Hashtbl.mem loop_agg "instrument@x100")) ctx;
      let sweep_agg = Trace.aggregate () in
      let sweep_counts = Counts.snapshot () in
      Trace.enabled := false;
      (* every span of the traced run, loop and sweep *)
      Trace.spans := !Trace.spans @ loop_spans;
      let trace_file = Printf.sprintf "perfbench/out/trace-%s-%d.json" !workload !seed in
      (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
      Out_channel.with_open_bin trace_file (fun oc -> output_string oc (Trace.to_chrome_json ()));
      let overhead = overhead_ratios ctx in
      let trace_overhead_pct = 100.0 *. (div (round_ms traced_rounds) (round_ms plain) -. 1.0) in
      let metrics =
        per_layer ~loop_agg ~loop_counts ~rounds:(List.length traced_rounds) ~loop_analysis
          ~sweep_agg ~sweep_counts ~sweep_analysis:!analysis_total ~overhead ~trace_overhead_pct
      in
      print_table
        (Printf.sprintf "%s (traced): %d untraced + %d traced rounds, fail_frac %.6f, spans in %s"
           !workload (List.length plain) (List.length traced_rounds)
           (div (fi !failed) (fi !attempted)) trace_file)
        metrics;
      print_result ~correct:(!failed = 0) metrics
    end
  with
  | Nondeterministic msg ->
    Printf.eprintf "perfbench: NONDETERMINISTIC: %s\n%!" msg;
    exit 3
  | Check_failed msg ->
    Printf.eprintf "perfbench: set-up check failed: %s\n%!" msg;
    exit 4
