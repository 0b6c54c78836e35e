(** The instance farm: instrument/instantiate a module {e once}, then
    serve batches of isolated executions across OCaml 5 domains.

    Sharing model (what one decode+instrument+instantiate buys every
    worker): the template runtime owns the metadata, hook specs,
    [br_table] index and the instance's pre-decoded instruction streams
    with all per-function side tables — all immutable after binding.
    Each worker domain forks a copy-on-write instance ([Runtime.fork]:
    fresh memory/globals/table/stack, hook imports rebound to the
    worker's own analysis), optionally tier-1 compiles its own closures
    (closures close over their instance, so they are per-fork by
    construction), captures a pristine snapshot, and serves its batch
    restore-per-run. Analysis callbacks run inline in the worker's
    hooks, as in the paper.

    Work distribution is static sharding — worker [w] of [N] serves
    ⌈runs/N⌉ or ⌊runs/N⌋ runs — not work stealing: batches are uniform
    (same module, same entry), so stealing would buy nothing and cost a
    shared queue on the hot path.

    Everything the farm measures is exported through {!Obs.Metrics}
    (runs, faults, instances/s), so `wasabi serve --metrics-out` and the
    Prometheus scrape see the same numbers the bench reports. *)

open Wasm

type mode = Sync

type stats = {
  st_domains : int;
  st_runs : int;
  st_faults : int;
  st_elapsed_s : float;
  st_instances_per_sec : float;
}

let m_runs =
  lazy (Obs.Metrics.counter "wasabi_serve_runs_total" ~help:"Executions served by the farm")
let m_faults =
  lazy
    (Obs.Metrics.counter "wasabi_serve_faults_total"
       ~help:"Served executions contained by restore (trap/exhaustion/governor)")
let m_ips =
  lazy
    (Obs.Metrics.gauge "wasabi_serve_instances_per_second"
       ~help:"Aggregate served executions per second, last farm run")

(** Faults contained per run: anything restore erases. *)
let is_contained = function
  | Value.Trap _ | Interp.Exhaustion _ | Error.Governor_limit _ -> true
  | e -> Interp.is_fault_exn e

(** One worker's batch, inside its own domain; everything it touches
    after the fork is worker-private. Returns the contained-fault count
    and the worker's profiler. *)
let serve_batch ~template ~analysis ~tier1 ?make_governor ~profile ~entry ~args runs =
  let inst, rt = Wasabi.Runtime.fork template analysis in
  if tier1 then ignore (Tier1.compile_all inst : int);
  let prof = if profile then Some (Obs.Profile.create ()) else None in
  if profile then Wasabi.Runtime.attach_profiler rt prof;
  let gov = Option.map (fun mk -> mk ()) make_governor in
  Interp.set_governor inst gov;
  let snap = Snapshot.capture inst in
  let faults = ref 0 in
  for _ = 1 to runs do
    Snapshot.restore snap inst;
    Option.iter Governor.arm gov;
    try ignore (Interp.invoke_export inst entry args : Value.t list)
    with e when is_contained e -> incr faults
  done;
  (!faults, prof)

(** Serve [runs] executions of [entry] across [domains] worker domains.
    [make_analysis w] builds worker [w]'s analysis (its state is only
    ever touched by the worker's own domain). [profile_into] turns on
    per-worker profilers and merges them at the end. *)
let run ?(tier1 = false) ?make_governor ?profile_into ?(args = []) ?mode:(_ : mode = Sync)
    ~domains ~runs ~entry ~(make_analysis : int -> Wasabi.Analysis.t)
    (res : Wasabi.Instrument.result) : stats =
  if domains < 1 then invalid_arg "Farm.run: domains must be positive";
  if runs < 0 then invalid_arg "Farm.run: runs must be non-negative";
  let _inst, template = Wasabi.Runtime.instantiate res Wasabi.Analysis.default in
  let runs_of w = (runs / domains) + (if w < runs mod domains then 1 else 0) in
  let profile = Option.is_some profile_into in
  let t0 = Obs.Clock.now_ns () in
  let analyses = Array.init domains make_analysis in
  let outcomes =
    Array.map Domain.join
      (Array.init domains (fun w ->
           Domain.spawn (fun () ->
               serve_batch ~template ~analysis:analyses.(w) ~tier1 ?make_governor ~profile
                 ~entry ~args (runs_of w))))
  in
  let elapsed_s = Obs.Clock.ns_to_s (Int64.sub (Obs.Clock.now_ns ()) t0) in
  Option.iter
    (fun into -> Array.iter (fun (_, p) -> Option.iter (Obs.Profile.merge ~into) p) outcomes)
    profile_into;
  let faults = Array.fold_left (fun a (f, _) -> a + f) 0 outcomes in
  let ips = if elapsed_s > 0.0 then float_of_int runs /. elapsed_s else 0.0 in
  Obs.Metrics.inc (Lazy.force m_runs) ~by:(float_of_int runs);
  Obs.Metrics.inc (Lazy.force m_faults) ~by:(float_of_int faults);
  Obs.Metrics.set (Lazy.force m_ips) ips;
  {
    st_domains = domains;
    st_runs = runs;
    st_faults = faults;
    st_elapsed_s = elapsed_s;
    st_instances_per_sec = ips;
  }
