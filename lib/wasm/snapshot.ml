(** Instance snapshot/restore: the state-isolation substrate for reusing
    one instance across adversarial runs.

    A snapshot captures everything a run can mutate: the linear memory
    image, global values, table entries, and the interpreter's mutable
    bookkeeping ([fuel], [steps], [call_depth], the operand-stack
    pointer, per-function tier-up hot counts). [restore] rewinds all of
    it, so a run that trapped, exhausted its fuel, hit a governor budget
    or absorbed an injected host fault leaves no residue for the next
    run — restore ≡ fresh [instantiate] up to observable state.

    Probe state is restored {e explicitly}: capture records a re-arm
    thunk from the registered probe controller ([inst_probes]) and
    restore runs it, re-arming exactly the probe set that was attached
    at capture time (or detaching everything when the snapshot predates
    the probes). See [snapshot.mli] for the full audit of what restore
    does and does not touch.

    Deliberately {e not} captured:

    - compiled tier state ([c_tier]): compiled closures are pure code,
      and a deopt ([T_unsupported]) records distrust of a body that a
      restore of {e data} should not reinstate. Hot counts are rewound
      so tier-up pressure restarts from the snapshot point.
    - the attached profiler / governor / tier policy: engine
      attachments, not run state; the caller re-arms its governor.
    - pending step triggers ([inst_triggers]): one-shot alarms keyed to
      the live [steps] counter; the party that registered them re-arms
      against the restored count if it still wants them.

    Cost model: capture and restore are both O(memory size) single
    [Bytes] copies plus O(globals + table) array copies — no per-page
    bookkeeping, no write barriers on the hot path, nothing at all
    unless a snapshot is actually taken. Restore of an un-grown memory
    blits in place (no allocation); after a grow it re-points the array,
    which also undoes the grow. [bench restore] measures both directions
    in pages/s. *)

open Interp

type t = {
  s_source : instance;
      (** the instance the snapshot was taken from — restoring into a
          different (forked) instance remaps source-owned function
          references in the table to the target *)
  s_mem : bytes option;
  s_globals : Value.t array;
  s_table : func_inst option array option;
  s_fuel : int;
  s_steps : int;
  s_call_depth : int;
  s_stack_size : int;
  s_hot : int array;
  s_probes : (unit -> unit) option;
      (** re-arms the probe set that was attached at capture time;
          [None] when no probe controller was registered *)
}

(* registered at module initialisation: a lazy first forced in two farm
   worker domains at once can raise [CamlinternalLazy.Undefined] *)
let restore_seconds =
  Obs.Metrics.histogram "wasabi_restore_seconds"
    ~help:"Time to restore an instance from a snapshot"

let capture (inst : instance) : t =
  {
    s_source = inst;
    s_mem = Option.map Memory.snapshot_bytes inst.inst_memory;
    s_globals = Array.map (fun g -> g.g_value) inst.inst_globals;
    s_table = Option.map (fun tb -> Array.copy tb.t_elems) inst.inst_table;
    s_fuel = inst.fuel;
    s_steps = inst.steps;
    s_call_depth = inst.call_depth;
    s_stack_size = inst.inst_stack.size;
    s_hot = Array.map (fun c -> c.c_hot) inst.inst_code;
    s_probes = Option.map (fun ps -> ps.ps_capture ()) inst.inst_probes;
  }

let pages t = match t.s_mem with None -> 0 | Some img -> Bytes.length img / Types.page_size

let restore (t : t) (inst : instance) : unit =
  let t0 = Obs.Clock.now_ns () in
  let cross = not (inst == t.s_source) in
  (match t.s_mem, inst.inst_memory with
   | Some img, Some mem -> Memory.restore_bytes mem img
   | None, _ | _, None -> ());
  (* global_inst records are shared with exports and cross-instance
     references: write values back in place, never replace the records *)
  Array.iteri (fun i g -> g.g_value <- t.s_globals.(i)) inst.inst_globals;
  (* restoring into a fork: function references owned by the snapshot's
     source must point at the target, or calls through the table would
     execute against the source's memory *)
  let remap slot =
    match slot with
    | Some (Wasm_func (j, owner)) when cross && owner == t.s_source ->
      Some (Wasm_func (j, inst))
    | _ -> slot
  in
  (match t.s_table, inst.inst_table with
   | Some elems, Some tb ->
     let n = Array.length elems in
     if Array.length tb.t_elems = n && not cross then
       Array.blit elems 0 tb.t_elems 0 n
     else if Array.length tb.t_elems = n then
       for i = 0 to n - 1 do
         tb.t_elems.(i) <- remap elems.(i)
       done
     else tb.t_elems <- Array.map remap elems
   | None, _ | _, None -> ());
  inst.fuel <- t.s_fuel;
  inst.steps <- t.s_steps;
  inst.call_depth <- t.s_call_depth;
  inst.inst_stack.size <- t.s_stack_size;
  let codes = inst.inst_code in
  for i = 0 to Array.length codes - 1 do
    codes.(i).c_hot <- t.s_hot.(i)
  done;
  (* probe state is restored explicitly, never left implicit: re-arm the
     probe set captured with the snapshot, or — if probes were attached
     after a probe-free capture — detach them all, so the restored
     instance observes exactly what the captured one did. A re-arm thunk
     operates on the snapshot's source; restoring into a fork instead
     detaches whatever the fork has (its probe set is its own affair). *)
  (match t.s_probes, inst.inst_probes with
   | Some rearm, _ when not cross -> rearm ()
   | _, Some ps -> ps.ps_detach_all ()
   | _ -> ());
  Obs.Metrics.observe restore_seconds
    (Obs.Clock.ns_to_s (Int64.sub (Obs.Clock.now_ns ()) t0))

(** A digest of everything [capture] would capture of the {e guest}
    state (memory, globals, table occupancy — not engine bookkeeping),
    for restore-idempotence checks: two instances with equal digests are
    indistinguishable to the next run's guest code. *)
let state_digest (inst : instance) : string =
  let buf = Buffer.create 256 in
  (match inst.inst_memory with
   | None -> Buffer.add_string buf "mem:none;"
   | Some m -> Buffer.add_string buf (Printf.sprintf "mem:%s;" (Digest.to_hex (Memory.digest m))));
  Array.iter (fun g -> Buffer.add_string buf (Value.to_string g.g_value); Buffer.add_char buf ';')
    inst.inst_globals;
  (match inst.inst_table with
   | None -> Buffer.add_string buf "table:none"
   | Some tb ->
     Array.iter
       (fun slot ->
          Buffer.add_string buf
            (match slot with
             | None -> "."
             | Some (Wasm_func (j, _)) -> Printf.sprintf "f%d," j
             | Some (Host_func h) -> Printf.sprintf "h%s," h.h_name))
       tb.t_elems);
  Digest.to_hex (Digest.string (Buffer.contents buf))
