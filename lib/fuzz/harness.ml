(** Campaign driver: deterministic fuzzing with replayable failures.

    Every case is fully determined by the campaign [seed] and its case
    [index] ({!Rng.for_case}); the generator stream and the mutation
    stream live in disjoint index spaces, so a failure report is always
    just a [(seed, index)] pair. Failing mutated inputs are additionally
    minimized (greedy chunk removal preserving the violation kind) and
    both the original and minimized binaries are dumped to the output
    directory. *)

open Wasm

type case_kind = Generated | Mutated

let kind_name = function Generated -> "gen" | Mutated -> "mut"

type failure = {
  case : case_kind;
  seed : int;
  index : int;
  oracle : string;  (** violation kind, e.g. "totality-decode" *)
  detail : string;
  input : string;  (** the offending binary *)
  minimized : string option;
  fault_plan : string option;
      (** rendered {!Faults.describe} when the campaign ran with fault
          injection; the plan itself replays from [(seed, index)] *)
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

let fresh_stats () =
  { gen_cases = 0; mut_cases = 0; mut_decoded = 0; mut_valid = 0; faulted = 0; skips = 0;
    violations = 0 }

(* generator cases use the index directly; mutation cases are offset so
   the two streams never share a per-case RNG *)
let mut_index_base = 0x4000_0000

(** {1 Case construction} *)

let gen_case ~seed ~index : Gen.info =
  Gen.generate (Rng.for_case ~seed ~index)

(** A mutated binary: a fresh small generated module, encoded, then
    structure-aware mutated — all from the case's own RNG. *)
let mut_case ~seed ~index : string =
  let rng = Rng.for_case ~seed ~index:(mut_index_base + index) in
  let base = Encode.encode (Gen.generate rng).Gen.module_ in
  Mutate.mutate rng base

(** {1 Oracles per case} *)

(** Run oracle [f], recording its wall time under
    [fuzz_oracle_seconds{oracle=...}] when a metrics registry is given. *)
let timed metrics oracle f =
  match metrics with
  | None -> f ()
  | Some registry ->
    let h =
      Obs.Metrics.histogram ~registry ~help:"Oracle wall time per case"
        ~labels:[ ("oracle", oracle) ] "fuzz_oracle_seconds"
    in
    let t0 = Obs.Clock.now_ns () in
    let r = f () in
    Obs.Metrics.observe h (Obs.Clock.ns_to_s (Int64.sub (Obs.Clock.now_ns ()) t0));
    r

(** First violation of the generated-module pipeline, or the skip/pass
    disposition. [restore] supplies the case's [(seed, index)] pair and
    runs the restore-equivalence (fault-injection) oracle as the final
    stage. [probe_index] round-robins the probe-parity variant (full
    attach / tiered / mid-run attach / mid-run detach) across the
    campaign — pass the case index; with [seed] it also draws the groups
    of the sparse probe-parity variant. *)
let check_generated ?metrics ?restore ?seed ?(probe_index = 0) (info : Gen.info) : [ `Pass | `Skip | `Fail of string * string ] =
  let timed oracle f = timed metrics oracle f in
  let m = info.Gen.module_ in
  let restore_stage fallthrough =
    match restore with
    | None -> fallthrough
    | Some (seed, index) ->
      (match timed "restore" (fun () -> Oracle.restore_equivalence ~seed ~index info) with
       | Oracle.Violation { kind; detail } -> `Fail (kind, detail)
       | Oracle.Skip _ | Oracle.Pass -> fallthrough)
  in
  match timed "totality-validate" (fun () -> Oracle.validate_total m) with
  | Error crash -> `Fail ("totality-validate", crash)
  | Ok false -> `Fail ("gen-invalid", "generator produced an invalid module")
  | Ok true ->
    (match timed "round-trip" (fun () -> Oracle.round_trip_generated m) with
     | Oracle.Violation { kind; detail } -> `Fail (kind, detail)
     | Oracle.Skip _ | Oracle.Pass ->
       (* static soundness before the (more expensive) differential runs:
          a lint finding pinpoints the broken invariant directly *)
       (match timed "lint" (fun () -> Oracle.lint_instrumented m) with
        | Oracle.Violation { kind; detail } -> `Fail (kind, detail)
        | Oracle.Skip _ | Oracle.Pass ->
          (match timed "differential" (fun () -> Oracle.differential info) with
           | Oracle.Violation { kind; detail } -> `Fail (kind, detail)
           | (Oracle.Skip _ | Oracle.Pass) as diff ->
             (* tier parity runs even when the instrumentation
                differential skipped: it compares out-of-fuel runs *)
             (match timed "tier-parity" (fun () -> Oracle.tier_differential info) with
              | Oracle.Violation { kind; detail } -> `Fail (kind, detail)
              | Oracle.Skip _ | Oracle.Pass ->
                (* engine-probe backend vs the AOT rewriter on the full
                   hook-event stream, incl. mid-run attach/detach and
                   tier-1 deopt variants *)
                (match timed "probe-parity" (fun () -> Oracle.probe_parity ?seed ~index:probe_index info) with
                 | Oracle.Violation { kind; detail } -> `Fail (kind, detail)
                 | Oracle.Skip _ | Oracle.Pass ->
                   (* static over-approximation soundness: observed execution
                      vs abstract-interpretation facts, and folded vs unfolded
                      instrumentation equivalence *)
                   (match timed "absint-soundness" (fun () -> Oracle.absint_soundness info) with
                    | Oracle.Violation { kind; detail } -> `Fail (kind, detail)
                    | Oracle.Skip _ | Oracle.Pass ->
                      restore_stage (match diff with Oracle.Skip _ -> `Skip | _ -> `Pass)))))))

(** The mutated-binary pipeline: totality of decode; then, as far as the
    mutant remains meaningful, validate / round-trip / execute. Returns
    the depth reached so the campaign can report corpus quality. *)
let check_mutated ?metrics (bin : string) : [ `Pass of [ `Rejected | `Decoded | `Valid ] | `Skip | `Fail of string * string ] =
  let timed oracle f = timed metrics oracle f in
  match timed "totality-decode" (fun () -> Oracle.decode_total bin) with
  | Error crash -> `Fail ("totality-decode", crash)
  | Ok None -> `Pass `Rejected
  | Ok (Some m) ->
    (match timed "totality-validate" (fun () -> Oracle.validate_total m) with
     | Error crash -> `Fail ("totality-validate", crash)
     | Ok false -> `Pass `Decoded
     | Ok true ->
       (match timed "round-trip" (fun () -> Oracle.round_trip_bytes m) with
        | Oracle.Violation { kind; detail } -> `Fail (kind, detail)
        | Oracle.Skip _ | Oracle.Pass ->
          (match timed "execution" (fun () -> Oracle.execution_total m) with
           | Oracle.Violation { kind; detail } -> `Fail (kind, detail)
           | Oracle.Skip _ -> `Skip
           | Oracle.Pass ->
             (* a fully-valid mutant also exercises the static
                over-approximation oracle: mutated tables and element
                segments stress the indirect-call resolution *)
             let info =
               { Gen.module_ = m;
                 has_memory = m.Ast.memories <> [];
                 n_globals = List.length m.Ast.globals }
             in
             (match timed "absint-soundness" (fun () -> Oracle.absint_soundness info) with
              | Oracle.Violation { kind; detail } -> `Fail (kind, detail)
              | Oracle.Skip _ | Oracle.Pass -> `Pass `Valid))))

(** {1 Minimization}

    Greedy ddmin-style chunk removal: repeatedly try deleting windows of
    shrinking size, keeping any deletion that preserves the violation
    kind. Bounded by an evaluation budget — minimization is best-effort
    triage help, not a guarantee. *)

let minimize_budget = 400

let violation_kind bin =
  match check_mutated bin with `Fail (kind, _) -> Some kind | _ -> None

let minimize (bin : string) : string option =
  match violation_kind bin with
  | None -> None
  | Some kind ->
    let evals = ref 0 in
    let still_fails cand =
      incr evals;
      !evals <= minimize_budget && violation_kind cand = Some kind
    in
    let remove s at len =
      String.sub s 0 at ^ String.sub s (at + len) (String.length s - at - len)
    in
    let cur = ref bin in
    let chunk = ref (max 1 (String.length bin / 2)) in
    while !chunk >= 1 && !evals <= minimize_budget do
      let progress = ref false in
      let pos = ref 0 in
      while !pos < String.length !cur && !evals <= minimize_budget do
        let len = min !chunk (String.length !cur - !pos) in
        let cand = remove !cur !pos len in
        if String.length cand < String.length !cur && still_fails cand then begin
          cur := cand;
          progress := true
          (* keep [pos]: the next window slid into place *)
        end
        else pos := !pos + len
      done;
      if not !progress then chunk := !chunk / 2
    done;
    if String.length !cur < String.length bin then Some !cur else None

(** {1 Failure reporting} *)

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc data)

let dump_failure ~out_dir (f : failure) =
  match out_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let stem = Printf.sprintf "%s/failure-%s-seed%d-case%d" dir (kind_name f.case) f.seed f.index in
    write_file (stem ^ ".wasm") f.input;
    (match f.minimized with Some m -> write_file (stem ^ ".min.wasm") m | None -> ());
    let fault_lines =
      match f.fault_plan with
      | None -> ""
      | Some plan -> Printf.sprintf "fault-plan: %s\n" plan
    in
    write_file (stem ^ ".txt")
      (Printf.sprintf "case: %s\nseed: %d\nindex: %d\noracle: %s\ndetail: %s\n%sreplay: wasabi fuzz --seed %d --replay %s:%d%s\n"
         (kind_name f.case) f.seed f.index f.oracle f.detail fault_lines f.seed (kind_name f.case)
         f.index
         (if f.fault_plan = None then "" else " --faults"))

(** {1 The campaign} *)

let default_seed = 0x5EED

(** Run the campaign, optionally sharded across [jobs] domains.

    Parallelism changes {e nothing} about the findings: every case is
    already fully determined by [(seed, index)] ({!Rng.for_case} derives
    a fresh splitmix64 stream per case), so job [j] simply takes the
    indices congruent to [j] mod [jobs] from both streams, and the
    merged report — stats sums, failures in (generated, then mutated,
    each by ascending index) order, dump files keyed by [(seed, index)]
    — is byte-identical for any job count, including [jobs = 1]'s
    sequential order. Only the interleaving of progress log lines
    differs; [log] itself is serialized under a mutex. Metrics are safe
    to share: counters are atomic, histogram observations mutex-guarded,
    registration registry-locked. *)
let run ?(log = fun (_ : string) -> ()) ?out_dir ?metrics ?(faults = false) ?(jobs = 1)
    ~seed ~gen_count ~mut_count () : stats * failure list =
  let jobs = max 1 jobs in
  (* created up front: job domains dump failures directly *)
  (match out_dir with
   | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
   | _ -> ());
  let log_lock = Mutex.create () in
  let log s = Mutex.protect log_lock (fun () -> log s) in
  let campaign_start = Obs.Clock.now_ns () in
  let case_counter kind =
    Option.map
      (fun registry ->
         Obs.Metrics.counter ~registry ~help:"Fuzz cases executed"
           ~labels:[ ("kind", kind) ] "fuzz_cases_total")
      metrics
  in
  let gen_counter = case_counter "gen" and mut_counter = case_counter "mut" in
  let bump = function None -> () | Some c -> Obs.Metrics.inc c in
  (* one job's share: indices ≡ job (mod jobs), with job-private stats
     and failure accumulation *)
  let run_slice job : stats * failure list =
    let stats = fresh_stats () in
    let failures = ref [] in
    let record ?fault_plan case index oracle detail input minimized =
      stats.violations <- stats.violations + 1;
      let f = { case; seed; index; oracle; detail; input; minimized; fault_plan } in
      failures := f :: !failures;
      dump_failure ~out_dir f;
      log
        (Printf.sprintf "FAIL [%s] (seed %d, index %d): %s — %s" oracle seed index
           (kind_name case) detail)
    in
    let i = ref job in
    while !i < gen_count do
      let index = !i in
      stats.gen_cases <- stats.gen_cases + 1;
      bump gen_counter;
      let info = gen_case ~seed ~index in
      let restore = if faults then Some (seed, index) else None in
      if faults then stats.faulted <- stats.faulted + 1;
      (match check_generated ?metrics ?restore ~seed ~probe_index:index info with
       | `Pass -> ()
       | `Skip -> stats.skips <- stats.skips + 1
       | `Fail (oracle, detail) ->
         let fault_plan =
           if faults then Some (Faults.describe (Faults.plan ~seed ~index)) else None
         in
         record ?fault_plan Generated index oracle detail (Encode.encode info.Gen.module_) None);
      if jobs = 1 && (index + 1) mod 1000 = 0 then
        log (Printf.sprintf "gen: %d/%d" (index + 1) gen_count);
      i := index + jobs
    done;
    let i = ref job in
    while !i < mut_count do
      let index = !i in
      stats.mut_cases <- stats.mut_cases + 1;
      bump mut_counter;
      let bin = mut_case ~seed ~index in
      (match check_mutated ?metrics bin with
       | `Pass `Rejected -> ()
       | `Pass `Decoded -> stats.mut_decoded <- stats.mut_decoded + 1
       | `Pass `Valid ->
         stats.mut_decoded <- stats.mut_decoded + 1;
         stats.mut_valid <- stats.mut_valid + 1
       | `Skip -> stats.skips <- stats.skips + 1
       | `Fail (oracle, detail) -> record Mutated index oracle detail bin (minimize bin));
      if jobs = 1 && (index + 1) mod 1000 = 0 then
        log (Printf.sprintf "mut: %d/%d" (index + 1) mut_count);
      i := index + jobs
    done;
    (stats, List.rev !failures)
  in
  let results =
    if jobs = 1 then [| run_slice 0 |]
    else Array.map Domain.join (Array.init jobs (fun j -> Domain.spawn (fun () -> run_slice j)))
  in
  let stats = fresh_stats () in
  Array.iter
    (fun ((s : stats), _) ->
       stats.gen_cases <- stats.gen_cases + s.gen_cases;
       stats.mut_cases <- stats.mut_cases + s.mut_cases;
       stats.mut_decoded <- stats.mut_decoded + s.mut_decoded;
       stats.mut_valid <- stats.mut_valid + s.mut_valid;
       stats.faulted <- stats.faulted + s.faulted;
       stats.skips <- stats.skips + s.skips;
       stats.violations <- stats.violations + s.violations)
    results;
  (* deterministic merged order regardless of job count: generated
     failures by ascending index, then mutated failures likewise —
     exactly the sequential campaign's order *)
  let by_kind k =
    Array.to_list results
    |> List.concat_map (fun (_, fs) -> List.filter (fun f -> f.case = k) fs)
    |> List.sort (fun a b -> compare a.index b.index)
  in
  let failures = by_kind Generated @ by_kind Mutated in
  (match metrics with
   | None -> ()
   | Some registry ->
     let elapsed = Obs.Clock.ns_to_s (Int64.sub (Obs.Clock.now_ns ()) campaign_start) in
     let cases = stats.gen_cases + stats.mut_cases in
     let g =
       Obs.Metrics.gauge ~registry ~help:"Campaign throughput" "fuzz_cases_per_second"
     in
     Obs.Metrics.set g (if elapsed > 0.0 then Float.of_int cases /. elapsed else 0.0);
     Obs.Metrics.inc ~by:(Float.of_int stats.violations)
       (Obs.Metrics.counter ~registry ~help:"Oracle violations" "fuzz_violations_total");
     Obs.Metrics.inc ~by:(Float.of_int stats.skips)
       (Obs.Metrics.counter ~registry ~help:"Skipped cases" "fuzz_skips_total"));
  (stats, failures)

(** Structured outcome of replaying one case: the caller decides on exit
    codes and formatting instead of sniffing a rendered string. *)
type disposition =
  | Pass of string  (** detail, e.g. how deep a mutant survived *)
  | Skip of string
  | Fail of { oracle : string; detail : string }

let disposition_to_string = function
  | Pass "" -> "pass"
  | Pass why -> Printf.sprintf "pass (%s)" why
  | Skip why -> Printf.sprintf "skip (%s)" why
  | Fail { oracle; detail } -> Printf.sprintf "FAIL [%s]: %s" oracle detail

(** Re-run a single case. [faults] must match the failing campaign's
    flag: the fault plan is re-derived from the same [(seed, index)]
    pair, so the replay is byte-identical — same faults, same actions,
    at the same host-call indices. *)
let replay ?(faults = false) ~seed ~index (case : case_kind) : disposition =
  match case with
  | Generated ->
    let info = gen_case ~seed ~index in
    let restore = if faults then Some (seed, index) else None in
    (match check_generated ?restore ~seed ~probe_index:index info with
     | `Pass -> Pass ""
     | `Skip -> Skip "base run exhausted its fuel"
     | `Fail (oracle, detail) -> Fail { oracle; detail })
  | Mutated ->
    let bin = mut_case ~seed ~index in
    (match check_mutated bin with
     | `Pass `Rejected -> Pass "mutant rejected by decoder"
     | `Pass `Decoded -> Pass "mutant decoded, rejected by validation"
     | `Pass `Valid -> Pass "mutant fully valid and executed"
     | `Skip -> Skip "oversized memory/table"
     | `Fail (oracle, detail) -> Fail { oracle; detail })

let summary (s : stats) =
  Printf.sprintf
    "%d generated + %d mutated cases: %d violations, %d skips (mutants: %d decoded, %d valid)%s"
    s.gen_cases s.mut_cases s.violations s.skips s.mut_decoded s.mut_valid
    (if s.faulted = 0 then "" else Printf.sprintf "; %d fault-injected" s.faulted)
