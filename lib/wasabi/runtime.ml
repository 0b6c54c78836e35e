(** The Wasabi runtime: provides the imported low-level hook functions and
    dispatches them to the high-level analysis API.

    This is the OCaml equivalent of the generated JavaScript of the
    original tool: low-level hooks are monomorphic host functions that
    decode their arguments (re-joining split i64 halves), attach
    pre-computed static information from {!Metadata} (resolved branch
    targets, [br_table] entries, indirect call targets) and invoke the
    user's {!Analysis.t} callbacks.

    There are two decoder implementations:

    - {b compiled} (the default): every monomorphized hook spec is
      compiled {e once}, at runtime-binding time, into a specialized
      closure — arity, argument slot offsets, i64 split/join, op-name
      strings and [br_table] metadata are all pre-resolved, and arguments
      are read straight out of the interpreter's operand-stack buffer
      (the array ABI of {!Wasm.Interp.host_func_raw}), with no per-call
      list allocation or map lookup;
    - {b reference}: the original interpretive [take_*]-chain over an
      argument list, kept as the debug path and as the oracle for the
      differential decoder tests. Selected with [~decoder:`Reference].

    Both paths must produce identical high-level hook invocations;
    [test/test_decoders.ml] checks this across the whole corpus. *)

open Wasm
open Wasm.Types

type decoder_kind = [ `Compiled | `Reference ]

type t = {
  metadata : Metadata.t;
  analysis : Analysis.t;
  decoder : decoder_kind;
  br_index : Metadata.br_table_index;
      (** O(1) per-location [br_table] metadata, built once at creation *)
  mutable instance : Interp.instance option;
      (** the instrumented instance, needed to resolve indirect call
          targets through the table; set right after instantiation *)
  mutable indirect_cache : int array;
      (** per-table-slot resolution of {!resolve_indirect}, filled lazily.
          MVP tables are immutable once element segments have been
          applied, so entries never need invalidation. *)
  mutable prof : Obs.Profile.t option;
      (** when set, every hook dispatch is counted and timed under
          ["hook.<group>"] plus the ["dispatch.decode"] /
          ["dispatch.analysis"] split; [None] costs one match per
          dispatch *)
  mark : int64 ref;
      (** timestamp of the first analysis-callback entry of the current
          profiled dispatch, or [-1L]; separates marshalling time from
          user analysis time *)
  marked_analysis : Analysis.t;
      (** [analysis] with every callback wrapped to record [mark]; only
          dispatched to while a profiler is attached *)
}

exception Bad_hook_args = Error.Hook_error

let bad fmt = Error.hook_error ~code:"bad-hook-args" fmt

let mark_now mark = if !mark < 0L then mark := Obs.Clock.now_ns ()

(** Wrap every callback so the first one entered during a dispatch
    records its entry time: everything before it is argument decoding,
    everything after it is the user's analysis code. *)
let with_mark mark (a : Analysis.t) : Analysis.t =
  {
    Analysis.nop = (fun l -> mark_now mark; a.Analysis.nop l);
    unreachable = (fun l -> mark_now mark; a.Analysis.unreachable l);
    if_ = (fun l c -> mark_now mark; a.Analysis.if_ l c);
    br = (fun l t -> mark_now mark; a.Analysis.br l t);
    br_if = (fun l t c -> mark_now mark; a.Analysis.br_if l t c);
    br_table = (fun l tbl d i -> mark_now mark; a.Analysis.br_table l tbl d i);
    begin_ = (fun l k -> mark_now mark; a.Analysis.begin_ l k);
    end_ = (fun l k b -> mark_now mark; a.Analysis.end_ l k b);
    const = (fun l v -> mark_now mark; a.Analysis.const l v);
    drop = (fun l v -> mark_now mark; a.Analysis.drop l v);
    select = (fun l c x y -> mark_now mark; a.Analysis.select l c x y);
    unary = (fun l op i r -> mark_now mark; a.Analysis.unary l op i r);
    binary = (fun l op x y r -> mark_now mark; a.Analysis.binary l op x y r);
    local = (fun l op i v -> mark_now mark; a.Analysis.local l op i v);
    global = (fun l op i v -> mark_now mark; a.Analysis.global l op i v);
    load = (fun l op ma v -> mark_now mark; a.Analysis.load l op ma v);
    store = (fun l op ma v -> mark_now mark; a.Analysis.store l op ma v);
    memory_size = (fun l s -> mark_now mark; a.Analysis.memory_size l s);
    memory_grow = (fun l d p -> mark_now mark; a.Analysis.memory_grow l d p);
    call_pre = (fun l f args ti -> mark_now mark; a.Analysis.call_pre l f args ti);
    call_post = (fun l rs -> mark_now mark; a.Analysis.call_post l rs);
    return_ = (fun l rs -> mark_now mark; a.Analysis.return_ l rs);
    start = (fun l -> mark_now mark; a.Analysis.start l);
  }

let create ?(decoder = `Compiled) (res : Instrument.result) (analysis : Analysis.t) : t =
  let mark = ref (-1L) in
  { metadata = res.metadata; analysis; decoder;
    br_index = Metadata.build_br_table_index res.metadata;
    instance = None; indirect_cache = [||]; prof = None;
    mark; marked_analysis = with_mark mark analysis }

(** Attach a profiler to both the runtime (hook-dispatch accounting) and
    the instrumented instance, when one is already present. *)
let attach_profiler (rt : t) (p : Obs.Profile.t option) : unit =
  rt.prof <- p;
  match rt.instance with
  | Some inst -> Interp.set_profiler inst p
  | None -> ()

let join_i64 (lo : int32) (hi : int32) : int64 =
  Int64.logor
    (Int64.logand (Int64.of_int32 lo) 0xFFFFFFFFL)
    (Int64.shift_left (Int64.of_int32 hi) 32)

(** {1 Reference decoders}

    Argument decoding by folding over the argument list: consume values
    according to declared types, re-joining i64 halves. This is the
    original interpretive path, kept for debugging and as the oracle the
    compiled decoders are differentially tested against. *)

let take_i32 = function
  | Value.I32 x :: rest -> (x, rest)
  | _ -> bad "expected i32"

let take_int vs =
  let x, rest = take_i32 vs in
  (Int32.to_int x, rest)

let take_bool vs =
  let x, rest = take_i32 vs in
  (not (Int32.equal x 0l), rest)

let take_value ~split ty vs =
  match ty, vs with
  | I64T, Value.I32 lo :: Value.I32 hi :: rest when split -> (Value.I64 (join_i64 lo hi), rest)
  | I64T, (Value.I64 _ as v) :: rest when not split -> (v, rest)
  | I32T, (Value.I32 _ as v) :: rest -> (v, rest)
  | F32T, (Value.F32 _ as v) :: rest -> (v, rest)
  | F64T, (Value.F64 _ as v) :: rest -> (v, rest)
  | _ -> bad "hook argument type mismatch"

let take_values ~split tys vs =
  List.fold_left
    (fun (acc, vs) ty ->
       let v, vs = take_value ~split ty vs in
       (v :: acc, vs))
    ([], vs) tys
  |> fun (acc, vs) -> (List.rev acc, vs)

let done_ = function [] -> () | _ -> bad "superfluous hook arguments"

(** Map a function instance of the *instrumented* module back to its index
    in the *original* module's function index space. *)
let original_func_index rt (f : Interp.func_inst) : int option =
  match rt.instance with
  | None -> None
  | Some inst ->
    let n_imp = rt.metadata.Metadata.num_original_func_imports in
    let h = rt.metadata.Metadata.num_hooks in
    (match f with
     | Interp.Wasm_func (j, owner) when owner == inst -> Some (n_imp + j)
     | Interp.Wasm_func _ -> None
     | Interp.Host_func _ ->
       (* originally imported function: find its import position *)
       let rec scan i =
         if i >= n_imp + h then None
         else if inst.Interp.inst_funcs.(i) == f then Some i
         else scan (i + 1)
       in
       (match scan 0 with
        | Some i when i < n_imp -> Some i
        | _ -> None))

(* cache sentinel: a table slot whose resolution has not been computed *)
let unresolved = min_int

let resolve_indirect rt (table_idx : int32) : int =
  let missing = -1 in
  match rt.instance with
  | None -> missing
  | Some inst ->
    (match inst.Interp.inst_table with
     | None -> missing
     | Some table ->
       let elems = table.Interp.t_elems in
       let i = Int64.to_int (Int64.logand (Int64.of_int32 table_idx) 0xFFFFFFFFL) in
       if i >= Array.length elems then missing
       else begin
         if Array.length rt.indirect_cache <> Array.length elems then
           rt.indirect_cache <- Array.make (Array.length elems) unresolved;
         let cached = rt.indirect_cache.(i) in
         if cached <> unresolved then cached
         else begin
           let r =
             match elems.(i) with
             | None -> missing
             | Some f ->
               (match original_func_index rt f with Some k -> k | None -> missing)
           in
           rt.indirect_cache.(i) <- r;
           r
         end
       end)

(** The reference dispatcher for one low-level hook: interpretive
    [take_*] decoding over an argument list. *)
let dispatch_reference rt (a : Analysis.t) (spec : Hook.spec) : Value.t list -> unit =
  let split = rt.metadata.Metadata.split_i64 in
  let take_value = take_value ~split in
  let take_values = take_values ~split in
  fun args ->
    let fidx, args = take_int args in
    let instr, args = take_int args in
    let loc = Location.make ~func:fidx ~instr in
    match spec with
    | Hook.S_nop -> done_ args; a.nop loc
    | S_unreachable -> done_ args; a.unreachable loc
    | S_start -> done_ args; a.start loc
    | S_if_cond ->
      let cond, args = take_bool args in
      done_ args;
      a.if_ loc cond
    | S_br ->
      let label, args = take_int args in
      let target, args = take_int args in
      done_ args;
      a.br loc { Metadata.label; target_loc = Location.make ~func:fidx ~instr:target }
    | S_br_if ->
      let label, args = take_int args in
      let target, args = take_int args in
      let cond, args = take_bool args in
      done_ args;
      a.br_if loc { Metadata.label; target_loc = Location.make ~func:fidx ~instr:target } cond
    | S_br_table ->
      let idx, args = take_int args in
      done_ args;
      let info = Metadata.br_table_at rt.metadata loc in
      if Hook.Group_set.mem Hook.G_br_table rt.metadata.Metadata.groups then
        a.br_table loc (Array.map fst info.Metadata.bt_targets) (fst info.Metadata.bt_default)
          idx;
      (* the blocks ended by the selected entry, known only at runtime *)
      if Hook.Group_set.mem Hook.G_end rt.metadata.Metadata.groups then begin
        (* the index is an unsigned i32: negative here means >= 2^31,
           which is out of range and takes the default *)
        let _, ended =
          if idx >= 0 && idx < Array.length info.Metadata.bt_targets then
            info.Metadata.bt_targets.(idx)
          else info.Metadata.bt_default
        in
        List.iter
          (fun (eb : Metadata.ended_block) ->
             a.end_ eb.Metadata.eb_end_loc eb.eb_kind
               (Location.make ~func:fidx ~instr:eb.eb_begin_instr))
          ended
      end
    | S_begin kind -> done_ args; a.begin_ loc kind
    | S_end kind ->
      let begin_instr, args = take_int args in
      done_ args;
      a.end_ loc kind (Location.make ~func:fidx ~instr:begin_instr)
    | S_const ty ->
      let v, args = take_value ty args in
      done_ args;
      a.const loc v
    | S_drop ty ->
      let v, args = take_value ty args in
      done_ args;
      a.drop loc v
    | S_select ty ->
      let cond, args = take_bool args in
      let v1, args = take_value ty args in
      let v2, args = take_value ty args in
      done_ args;
      a.select loc cond v1 v2
    | S_unary (op, ity, rty) ->
      let input, args = take_value ity args in
      let result, args = take_value rty args in
      done_ args;
      a.unary loc op input result
    | S_binary (op, aty, bty, rty) ->
      let x, args = take_value aty args in
      let y, args = take_value bty args in
      let r, args = take_value rty args in
      done_ args;
      a.binary loc op x y r
    | S_local (op, ty) ->
      let idx, args = take_int args in
      let v, args = take_value ty args in
      done_ args;
      a.local loc (Hook.local_op_name op) idx v
    | S_global (op, ty) ->
      let idx, args = take_int args in
      let v, args = take_value ty args in
      done_ args;
      a.global loc (Hook.global_op_name op) idx v
    | S_load (op, ty) ->
      let addr, args = take_i32 args in
      let offset, args = take_int args in
      let v, args = take_value ty args in
      done_ args;
      a.load loc op { Analysis.addr; offset } v
    | S_store (op, ty) ->
      let addr, args = take_i32 args in
      let offset, args = take_int args in
      let v, args = take_value ty args in
      done_ args;
      a.store loc op { Analysis.addr; offset } v
    | S_memory_size ->
      let size, args = take_int args in
      done_ args;
      a.memory_size loc size
    | S_memory_grow ->
      let delta, args = take_int args in
      let prev, args = take_int args in
      done_ args;
      a.memory_grow loc delta prev
    | S_call_pre (tys, indirect) ->
      let callee_or_table, args = take_i32 args in
      let vs, args = take_values tys args in
      done_ args;
      if indirect then
        let callee = resolve_indirect rt callee_or_table in
        a.call_pre loc callee vs (Some (Int32.to_int callee_or_table))
      else a.call_pre loc (Int32.to_int callee_or_table) vs None
    | S_call_post tys ->
      let vs, args = take_values tys args in
      done_ args;
      a.call_post loc vs
    | S_return tys ->
      let vs, args = take_values tys args in
      done_ args;
      a.return_ loc vs

(** {1 Compiled decoders}

    Slot readers, each specialized at compile time to a fixed slot [k]
    relative to the argument base. The hook's wasm signature guarantees
    exactly the declared slots are present ([Interp.call_host] enforces
    the arity), so reads use [unsafe_get]. Slots 0 and 1 are always the
    location (function index, instruction index). *)

let read_int k args off =
  match Array.unsafe_get args (off + k) with
  | Value.I32 x -> Int32.to_int x
  | _ -> bad "expected i32"

let read_i32 k args off =
  match Array.unsafe_get args (off + k) with
  | Value.I32 x -> x
  | _ -> bad "expected i32"

let read_bool k args off =
  match Array.unsafe_get args (off + k) with
  | Value.I32 x -> not (Int32.equal x 0l)
  | _ -> bad "expected i32"

(** Reader for one typed value at slot [k]; returns the reader and the
    number of slots consumed. The i64 split/join decision is resolved
    here, once per spec, instead of per call. *)
let read_value ~split ty k : (Value.t array -> int -> Value.t) * int =
  match ty with
  | I64T when split ->
    ( (fun args off ->
         match Array.unsafe_get args (off + k), Array.unsafe_get args (off + k + 1) with
         | Value.I32 lo, Value.I32 hi -> Value.I64 (join_i64 lo hi)
         | _ -> bad "hook argument type mismatch"),
      2 )
  | I64T ->
    ( (fun args off ->
         match Array.unsafe_get args (off + k) with
         | Value.I64 _ as v -> v
         | _ -> bad "hook argument type mismatch"),
      1 )
  | I32T ->
    ( (fun args off ->
         match Array.unsafe_get args (off + k) with
         | Value.I32 _ as v -> v
         | _ -> bad "hook argument type mismatch"),
      1 )
  | F32T ->
    ( (fun args off ->
         match Array.unsafe_get args (off + k) with
         | Value.F32 _ as v -> v
         | _ -> bad "hook argument type mismatch"),
      1 )
  | F64T ->
    ( (fun args off ->
         match Array.unsafe_get args (off + k) with
         | Value.F64 _ as v -> v
         | _ -> bad "hook argument type mismatch"),
      1 )

(** Reader for a typed argument tuple (call/return hooks): every
    element's slot is pre-resolved; the returned closure builds the
    [Value.t list] in one left-to-right pass with no reversal. *)
let read_values ~split tys k0 : Value.t array -> int -> Value.t list =
  let readers, _ =
    List.fold_left
      (fun (acc, k) ty ->
         let r, w = read_value ~split ty k in
         (r :: acc, k + w))
      ([], k0) tys
  in
  match List.rev readers with
  | [] -> fun _ _ -> []
  | readers ->
    let rec build rs args off =
      match rs with
      | [] -> []
      | r :: rest ->
        (* [let]-bound so elements are read first-to-last, exactly like
           the reference [take_values] chain *)
        let v = r args off in
        v :: build rest args off
    in
    fun args off -> build readers args off

(** Compile one monomorphized hook spec into its specialized decoder.
    Arity, slot offsets, i64 joins, op-name strings and [br_table]
    metadata lookups are all resolved here, once, at runtime-binding
    time; the returned closure does no list traversal and no map walk.
    Argument reads are [let]-bound in the reference decoder's order (not
    inlined into the callback application, whose evaluation order OCaml
    does not define), so the two paths are observationally identical. *)
let compile rt (a : Analysis.t) (spec : Hook.spec) : Value.t array -> int -> unit =
  let split = rt.metadata.Metadata.split_i64 in
  let read_value ty k = read_value ~split ty k in
  let read_values tys k = read_values ~split tys k in
  let loc args off = Location.make ~func:(read_int 0 args off) ~instr:(read_int 1 args off) in
  match spec with
  | Hook.S_nop -> fun args off -> a.nop (loc args off)
  | S_unreachable -> fun args off -> a.unreachable (loc args off)
  | S_start -> fun args off -> a.start (loc args off)
  | S_if_cond ->
    fun args off ->
      let l = loc args off in
      let cond = read_bool 2 args off in
      a.if_ l cond
  | S_br ->
    fun args off ->
      let l = loc args off in
      let label = read_int 2 args off in
      let target = read_int 3 args off in
      a.br l { Metadata.label; target_loc = Location.make ~func:l.Location.func ~instr:target }
  | S_br_if ->
    fun args off ->
      let l = loc args off in
      let label = read_int 2 args off in
      let target = read_int 3 args off in
      let cond = read_bool 4 args off in
      a.br_if l { Metadata.label; target_loc = Location.make ~func:l.Location.func ~instr:target }
        cond
  | S_br_table ->
    (* the hook also serves [end] alone: report only the selected groups *)
    let want_bt = Hook.Group_set.mem Hook.G_br_table rt.metadata.Metadata.groups in
    let want_end = Hook.Group_set.mem Hook.G_end rt.metadata.Metadata.groups in
    let br_index = rt.br_index in
    fun args off ->
      let fidx = read_int 0 args off in
      let instr = read_int 1 args off in
      let l = Location.make ~func:fidx ~instr in
      let idx = read_int 2 args off in
      let info =
        match Metadata.br_table_find br_index ~func:fidx ~instr with
        | Some info -> info
        | None -> invalid_arg (Printf.sprintf "no br_table at %s" (Location.to_string l))
      in
      if want_bt then
        a.br_table l (Array.map fst info.Metadata.bt_targets) (fst info.Metadata.bt_default) idx;
      if want_end then begin
        (* the index is an unsigned i32: negative here means >= 2^31,
           which is out of range and takes the default *)
        let _, ended =
          if idx >= 0 && idx < Array.length info.Metadata.bt_targets then
            info.Metadata.bt_targets.(idx)
          else info.Metadata.bt_default
        in
        List.iter
          (fun (eb : Metadata.ended_block) ->
             a.end_ eb.Metadata.eb_end_loc eb.eb_kind
               (Location.make ~func:fidx ~instr:eb.eb_begin_instr))
          ended
      end
  | S_begin kind -> fun args off -> a.begin_ (loc args off) kind
  | S_end kind ->
    fun args off ->
      let fidx = read_int 0 args off in
      let instr = read_int 1 args off in
      let begin_instr = read_int 2 args off in
      a.end_ (Location.make ~func:fidx ~instr) kind (Location.make ~func:fidx ~instr:begin_instr)
  | S_const ty ->
    let rd, _ = read_value ty 2 in
    fun args off ->
      let l = loc args off in
      let v = rd args off in
      a.const l v
  | S_drop ty ->
    let rd, _ = read_value ty 2 in
    fun args off ->
      let l = loc args off in
      let v = rd args off in
      a.drop l v
  | S_select ty ->
    let rd1, w = read_value ty 3 in
    let rd2, _ = read_value ty (3 + w) in
    fun args off ->
      let l = loc args off in
      let cond = read_bool 2 args off in
      let v1 = rd1 args off in
      let v2 = rd2 args off in
      a.select l cond v1 v2
  | S_unary (op, ity, rty) ->
    let rdi, wi = read_value ity 2 in
    let rdr, _ = read_value rty (2 + wi) in
    fun args off ->
      let l = loc args off in
      let input = rdi args off in
      let result = rdr args off in
      a.unary l op input result
  | S_binary (op, aty, bty, rty) ->
    let rda, wa = read_value aty 2 in
    let rdb, wb = read_value bty (2 + wa) in
    let rdr, _ = read_value rty (2 + wa + wb) in
    fun args off ->
      let l = loc args off in
      let x = rda args off in
      let y = rdb args off in
      let r = rdr args off in
      a.binary l op x y r
  | S_local (op, ty) ->
    let opn = Hook.local_op_name op in
    let rd, _ = read_value ty 3 in
    fun args off ->
      let l = loc args off in
      let idx = read_int 2 args off in
      let v = rd args off in
      a.local l opn idx v
  | S_global (op, ty) ->
    let opn = Hook.global_op_name op in
    let rd, _ = read_value ty 3 in
    fun args off ->
      let l = loc args off in
      let idx = read_int 2 args off in
      let v = rd args off in
      a.global l opn idx v
  | S_load (op, ty) ->
    let rd, _ = read_value ty 4 in
    fun args off ->
      let l = loc args off in
      let addr = read_i32 2 args off in
      let offset = read_int 3 args off in
      let v = rd args off in
      a.load l op { Analysis.addr; offset } v
  | S_store (op, ty) ->
    let rd, _ = read_value ty 4 in
    fun args off ->
      let l = loc args off in
      let addr = read_i32 2 args off in
      let offset = read_int 3 args off in
      let v = rd args off in
      a.store l op { Analysis.addr; offset } v
  | S_memory_size ->
    fun args off ->
      let l = loc args off in
      let size = read_int 2 args off in
      a.memory_size l size
  | S_memory_grow ->
    fun args off ->
      let l = loc args off in
      let delta = read_int 2 args off in
      let prev = read_int 3 args off in
      a.memory_grow l delta prev
  | S_call_pre (tys, indirect) ->
    let rdv = read_values tys 3 in
    if indirect then
      fun args off ->
        let l = loc args off in
        let tbl_idx = read_i32 2 args off in
        let vs = rdv args off in
        let callee = resolve_indirect rt tbl_idx in
        a.call_pre l callee vs (Some (Int32.to_int tbl_idx))
    else
      fun args off ->
        let l = loc args off in
        let callee = read_i32 2 args off in
        let vs = rdv args off in
        a.call_pre l (Int32.to_int callee) vs None
  | S_call_post tys ->
    let rdv = read_values tys 2 in
    fun args off ->
      let l = loc args off in
      let vs = rdv args off in
      a.call_post l vs
  | S_return tys ->
    let rdv = read_values tys 2 in
    fun args off ->
      let l = loc args off in
      let vs = rdv args off in
      a.return_ l vs

(** {1 Hook host functions} *)

(** Build the host function implementing one low-level hook: the selected
    decoder body, plus — only while a profiler is attached — a timing
    wrapper that splits total dispatch time into marshalling
    (["dispatch.decode"]) and user analysis code (["dispatch.analysis"])
    at the first analysis-callback entry. *)
let make_hook rt (spec : Hook.spec) : Interp.extern =
  let split_i64 = rt.metadata.Metadata.split_i64 in
  let ft = Hook.signature ~split_i64 spec in
  let nparams = List.length ft.params in
  let body_of a =
    match rt.decoder with
    | `Compiled -> compile rt a spec
    | `Reference ->
      let d = dispatch_reference rt a spec in
      fun args off ->
        let rec build i acc = if i < 0 then acc else build (i - 1) (args.(off + i) :: acc) in
        d (build (nparams - 1) [])
  in
  let fast = body_of rt.analysis in
  let profiled = lazy (body_of rt.marked_analysis) in
  let timer_key = "hook." ^ Hook.group_name (Hook.group_of_spec spec) in
  let mark = rt.mark in
  let h_fn args off =
    (match rt.prof with
     | None -> fast args off
     | Some p ->
       let t0 = Obs.Clock.now_ns () in
       mark := -1L;
       Lazy.force profiled args off;
       let t2 = Obs.Clock.now_ns () in
       let t1 = if !mark < 0L then t2 else !mark in
       Obs.Profile.add_time p timer_key (Int64.sub t2 t0);
       Obs.Profile.add_time p "dispatch.decode" (Int64.sub t1 t0);
       Obs.Profile.add_time p "dispatch.analysis" (Int64.sub t2 t1));
    []
  in
  Interp.host_func_raw ~name:(Hook.name spec) ~params:ft.params ~results:ft.results h_fn

(** The dispatch table: one host function per generated hook, indexed by
    hook ordinal (= import position minus the original import count). *)
let hook_externs (rt : t) : Interp.extern array =
  Array.map (make_hook rt) rt.metadata.Metadata.hook_specs

let imports_of rt (hooks : Interp.extern array) : Interp.imports =
  Array.to_list
    (Array.mapi
       (fun k ext -> (Hook.import_module, Hook.name rt.metadata.Metadata.hook_specs.(k), ext))
       hooks)

(** Import list providing every generated low-level hook. *)
let imports (rt : t) : Interp.imports = imports_of rt (hook_externs rt)

(** Instantiate an instrumented module with the given analysis attached.
    [extra_imports] supplies the program's own imports (if any). The
    instrumenter appends hook imports after the original imports in
    ordinal order, so hooks are resolved positionally through the
    dispatch table (O(1) per import) rather than by name scan; anything
    else falls back to the name-keyed list.

    [wrap_host] is applied to every bound host function — the generated
    hooks and any [Host_func] among [extra_imports] — before binding;
    the fuzzing harness uses it to interpose its fault-injection plan. *)
let instantiate ?fuel ?decoder ?wrap_host ?(extra_imports : Interp.imports = [])
    (res : Instrument.result) (analysis : Analysis.t) : Interp.instance * t =
  let rt = create ?decoder res analysis in
  let hooks = hook_externs rt in
  let wrap_extern ext =
    match wrap_host, ext with
    | Some w, Interp.Extern_func (Interp.Host_func h) ->
      Interp.Extern_func (Interp.Host_func (w h))
    | _ -> ext
  in
  let hooks = match wrap_host with None -> hooks | Some _ -> Array.map wrap_extern hooks in
  let extra_imports =
    match wrap_host with
    | None -> extra_imports
    | Some _ -> List.map (fun (m, n, ext) -> (m, n, wrap_extern ext)) extra_imports
  in
  let base = List.length rt.metadata.Metadata.original.Ast.imports in
  let resolve_import i (imp : Ast.import) =
    let k = i - base in
    if k >= 0 && k < Array.length hooks && String.equal imp.module_name Hook.import_module then
      Some (Array.unsafe_get hooks k)
    else None
  in
  let inst =
    Interp.instantiate ?fuel ~resolve_import
      ~imports:(imports_of rt hooks @ extra_imports)
      res.Instrument.instrumented
  in
  rt.instance <- Some inst;
  (inst, rt)

(** Fork an instantiated runtime: a copy-on-write clone of the instance
    ([Interp.fork]) paired with a fresh runtime that owns its own hook
    host functions, analysis binding, indirect-call cache and profiler
    slot, while sharing the immutable per-module work (metadata, the
    [br_table] index, hook specs). Hook imports in the forked instance
    are rebound to the new runtime's hooks, so events dispatch to
    [analysis], never to the source runtime's.

    The fork starts de-tiered; callers that want tier-1 run
    [Tier1.compile_all] on the forked instance. This is the serve farm's
    worker setup: one instrument+instantiate, then one [fork] per worker
    domain. *)
let fork (rt : t) (analysis : Analysis.t) : Interp.instance * t =
  let src =
    match rt.instance with
    | Some i -> i
    | None -> invalid_arg "Runtime.fork: runtime has no instance"
  in
  let mark = ref (-1L) in
  let rt' =
    { metadata = rt.metadata; analysis; decoder = rt.decoder;
      br_index = rt.br_index; instance = None; indirect_cache = [||];
      prof = None; mark; marked_analysis = with_mark mark analysis }
  in
  let hooks = hook_externs rt' in
  (* hook ordinal [k] sits at function index [num_original_func_imports + k]
     (the instrumenter appends hook imports after the original ones) *)
  let fbase = rt.metadata.Metadata.num_original_func_imports in
  let wrap_import i (h : Interp.host_func) =
    let k = i - fbase in
    if k >= 0 && k < Array.length hooks then
      match hooks.(k) with
      | Interp.Extern_func (Interp.Host_func h') -> h'
      | _ -> h
    else h
  in
  let inst = Interp.fork ~wrap_import src in
  rt'.instance <- Some inst;
  (inst, rt')

(** {1 The engine-probe backend}

    The second way to run an analysis: instead of rewriting the binary
    ahead of time, probes are spliced into the {e original} module's
    pre-decoded instruction stream inside the engine
    ([Interp.splice_probes], [Interp.probe_function]).
    No re-encode, no i64 splitting, no argument marshalling through wasm
    locals — event closures peek operands directly off the live operand
    stack and invoke the same {!Analysis.t} callbacks the AOT hook path
    dispatches to, so every analysis runs unmodified under either
    backend.

    Event synthesis mirrors the instrumenter's contract exactly
    (location values, event order, [end] events of every block a branch
    exits, [br_table] runtime selection, call argument/result capture);
    the probe-parity differential fuzz oracle holds the two backends to
    an identical hook-event stream.

    Probes attach and detach while the instance runs. Attach takes
    effect at the next entry of each function (frames already on the
    stack finish on the code they entered with); detach silences the
    already-installed closures immediately via the entry's active flag.
    Attaching deopts tier-1-compiled bodies back to tier 0; detaching
    lets them re-tier naturally. *)
module Probe = struct
  open Wasm.Interp
  open Wasm.Ast

  (** Static control-stack entry of the probe builder's walk, the
      analogue of the instrumenter's [ctrl_entry]. *)
  type pctrl = {
    k : Hook.block_kind;
    cb : int;  (** begin instruction index; -1 for the function *)
    ce : int;  (** matching [End] index; body length for the function *)
  }

  type controller = {
    pc_inst : instance;  (** an instance of the {e original} module *)
    pc_analysis : Analysis.t;
    pc_marked : Analysis.t;  (** mark-wrapped, dispatched under a profiler *)
    pc_mark : int64 ref;
    pc_mgr : Obs.Probe.t;
    mutable pc_prof : Obs.Profile.t option;
    mutable pc_indirect : int array;  (** per-table-slot callee resolution *)
    pc_n_imp : int;  (** imported functions: defined j ↔ index n_imp + j *)
    pc_start : int option;
  }

  let target_instr (e : pctrl) =
    match e.k with
    | Hook.Bloop -> e.cb + 1
    | Hook.Bfunction -> e.ce
    | Hook.Bblock | Hook.Bif | Hook.Belse -> e.ce + 1

  (** Original-module function index of a table slot's callee, -1 when
      null / foreign; cached per slot (MVP tables are immutable). *)
  let resolve_indirect_orig c (tbl : int32) : int =
    match c.pc_inst.inst_table with
    | None -> -1
    | Some table ->
      let elems = table.t_elems in
      let i = Int64.to_int (Int64.logand (Int64.of_int32 tbl) 0xFFFFFFFFL) in
      if i >= Array.length elems then -1
      else begin
        if Array.length c.pc_indirect <> Array.length elems then
          c.pc_indirect <- Array.make (Array.length elems) unresolved;
        let cached = c.pc_indirect.(i) in
        if cached <> unresolved then cached
        else begin
          let r =
            match elems.(i) with
            | None -> -1
            | Some (Wasm_func (j, owner)) when owner == c.pc_inst -> c.pc_n_imp + j
            | Some f ->
              let rec scan i =
                if i >= c.pc_n_imp then -1
                else if c.pc_inst.inst_funcs.(i) == f then i
                else scan (i + 1)
              in
              scan 0
          in
          c.pc_indirect.(i) <- r;
          r
        end
      end

  (** Build the probed body of defined function [j] from the currently
      attached probe set ({!Wasm.Interp.splice_probes}): [None] when no
      active probe matches any event site in the function. Every
      synthesized event closure is a gate (the statically-matching probe
      entries' dynamic [should_fire]) around the analysis callback,
      wrapped — only while a profiler is attached — in the
      ["hook.<group>"] / ["dispatch.probe"] / ["dispatch.analysis"]
      timing split. *)
  let build_hooks c ~(j : int) : probed_body option =
    let inst = c.pc_inst in
    let code = inst.inst_code.(j) in
    let fidx = c.pc_n_imp + j in
    let body = code.c_body in
    let n = Array.length body in
    let jumps = code.c_jumps in
    let st = inst.inst_stack in
    let peek d = Array.unsafe_get st.data (st.size - 1 - d) in
    let loc at = Location.make ~func:fidx ~instr:at in
    let mk_event ~group ~at (build : Analysis.t -> Value.t array -> unit) :
        (Value.t array -> unit) option =
      let gname = Hook.group_name group in
      match
        List.filter
          (fun (e : Obs.Probe.entry) ->
             Obs.Probe.site_matches e.Obs.Probe.e_spec ~group:gname ~func:fidx ~instr:at)
          (Obs.Probe.entries c.pc_mgr)
      with
      | [] -> None
      | es ->
        let fast = build c.pc_analysis in
        let profiled = lazy (build c.pc_marked) in
        let timer_key = "hook." ^ gname in
        let fired = Obs.Probe.fired_counter c.pc_mgr in
        Some
          (fun locals ->
             (* every matching entry counts the occurrence (no
                short-circuit): the [@nth] counters stay exact even
                when another entry already fires the event *)
             let fire =
               List.fold_left
                 (fun acc e -> Obs.Probe.should_fire e ~fired || acc)
                 false es
             in
             if fire then
               match c.pc_prof with
               | None -> fast locals
               | Some p ->
                 let t0 = Obs.Clock.now_ns () in
                 c.pc_mark := -1L;
                 (Lazy.force profiled) locals;
                 let t2 = Obs.Clock.now_ns () in
                 let t1 = if !(c.pc_mark) < 0L then t2 else !(c.pc_mark) in
                 Obs.Profile.add_time p timer_key (Int64.sub t2 t0);
                 Obs.Profile.add_time p "dispatch.probe" (Int64.sub t1 t0);
                 Obs.Profile.add_time p "dispatch.analysis" (Int64.sub t2 t1))
    in
    let pre = Array.make n [] and post = Array.make n [] in
    let any = ref false in
    let add_pre i f =
      any := true;
      pre.(i) <- f :: pre.(i)
    in
    let add_post i f =
      any := true;
      post.(i) <- f :: post.(i)
    in
    let add_pre_event i = function None -> () | Some f -> add_pre i f in
    let add_post_event i = function None -> () | Some f -> add_post i f in
    let ctrl = ref [ { k = Hook.Bfunction; cb = -1; ce = n } ] in
    let resolve_target l : Metadata.target =
      let e = List.nth !ctrl l in
      { Metadata.label = l; target_loc = loc (target_instr e) }
    in
    let ended_blocks l : Metadata.ended_block list =
      List.filteri (fun i _ -> i <= l) !ctrl
      |> List.map (fun e ->
        { Metadata.eb_kind = e.k; eb_end_loc = loc e.ce; eb_begin_instr = e.cb })
    in
    (* gated end-event closures of the blocks a branch exits, innermost
       first — each gated at its own reported location *)
    let end_events ended =
      List.filter_map
        (fun (eb : Metadata.ended_block) ->
           mk_event ~group:Hook.G_end ~at:eb.Metadata.eb_end_loc.Location.instr
             (fun a _ ->
                a.Analysis.end_ eb.Metadata.eb_end_loc eb.Metadata.eb_kind
                  (loc eb.Metadata.eb_begin_instr)))
        ended
    in
    let cond_of v = not (Int32.equal (Value.as_i32 v) 0l) in
    Array.iteri
      (fun at ins ->
         match ins with
         | Nop ->
           add_post_event at
             (mk_event ~group:Hook.G_nop ~at (fun a _ -> a.Analysis.nop (loc at)))
         | Unreachable ->
           add_pre_event at
             (mk_event ~group:Hook.G_unreachable ~at (fun a _ ->
                a.Analysis.unreachable (loc at)))
         | Block _ ->
           ctrl := { k = Hook.Bblock; cb = at; ce = jumps.end_of.(at) } :: !ctrl;
           add_post_event at
             (mk_event ~group:Hook.G_begin ~at (fun a _ ->
                a.Analysis.begin_ (loc at) Hook.Bblock))
         | Loop _ ->
           ctrl := { k = Hook.Bloop; cb = at; ce = jumps.end_of.(at) } :: !ctrl;
           (* on the loop-head slot, the back-branch target: fires once
              per iteration, like the AOT hook inside the loop *)
           add_pre_event (at + 1)
             (mk_event ~group:Hook.G_begin ~at (fun a _ ->
                a.Analysis.begin_ (loc at) Hook.Bloop))
         | If _ ->
           add_pre_event at
             (mk_event ~group:Hook.G_if ~at (fun a _ ->
                a.Analysis.if_ (loc at) (cond_of (peek 0))));
           ctrl := { k = Hook.Bif; cb = at; ce = jumps.end_of.(at) } :: !ctrl;
           (* first slot of the then-branch: fires only when the
              condition was true, like the AOT hook inside the branch *)
           add_pre_event (at + 1)
             (mk_event ~group:Hook.G_begin ~at (fun a _ ->
                a.Analysis.begin_ (loc at) Hook.Bif))
         | Else ->
           let e, rest =
             match !ctrl with
             | e :: rest -> (e, rest)
             | [] -> invalid_arg "else without open block"
           in
           ctrl := { e with k = Hook.Belse; cb = at } :: rest;
           (* reached only by the then-branch falling through *)
           add_pre_event at
             (mk_event ~group:Hook.G_end ~at (fun a _ ->
                a.Analysis.end_ (loc at) Hook.Bif (loc e.cb)));
           (* first slot of the else-branch: false-condition path only *)
           add_pre_event (at + 1)
             (mk_event ~group:Hook.G_begin ~at (fun a _ ->
                a.Analysis.begin_ (loc at) Hook.Belse))
         | End ->
           let e, rest =
             match !ctrl with
             | e :: rest -> (e, rest)
             | [] -> invalid_arg "unbalanced end"
           in
           ctrl := rest;
           add_pre_event at
             (mk_event ~group:Hook.G_end ~at (fun a _ ->
                a.Analysis.end_ (loc at) e.k (loc e.cb)))
         | Br l ->
           let t = resolve_target l in
           add_pre_event at
             (mk_event ~group:Hook.G_br ~at (fun a _ -> a.Analysis.br (loc at) t));
           List.iter (add_pre at) (end_events (ended_blocks l))
         | BrIf l ->
           let t = resolve_target l in
           add_pre_event at
             (mk_event ~group:Hook.G_br_if ~at (fun a _ ->
                a.Analysis.br_if (loc at) t (cond_of (peek 0))));
           (match end_events (ended_blocks l) with
            | [] -> ()
            | evs ->
              (* end events fire only when the branch is taken *)
              add_pre at (fun locals ->
                if cond_of (peek 0) then List.iter (fun f -> f locals) evs))
         | BrTable (ls, d) ->
           let entry l = (resolve_target l, ended_blocks l) in
           let targets_info = Array.of_list (List.map entry ls) in
           let default_info = entry d in
           let targets = Array.map fst targets_info in
           let default_t = fst default_info in
           let bt_event =
             mk_event ~group:Hook.G_br_table ~at (fun a _ ->
               a.Analysis.br_table (loc at) targets default_t
                 (Int32.to_int (Value.as_i32 (peek 0))))
           in
           let entry_ends = Array.map (fun (_, ended) -> end_events ended) targets_info in
           let default_ends = end_events (snd default_info) in
           let have_ends =
             (match default_ends with [] -> false | _ -> true)
             || Array.exists (function [] -> false | _ -> true) entry_ends
           in
           if bt_event <> None || have_ends then
             add_pre at (fun locals ->
               (match bt_event with None -> () | Some f -> f locals);
               if have_ends then begin
                 (* signed read, like the AOT dispatcher: a negative
                    index is >= 2^31 unsigned, out of range, default *)
                 let idx = Int32.to_int (Value.as_i32 (peek 0)) in
                 let ends =
                   if idx >= 0 && idx < Array.length entry_ends then entry_ends.(idx)
                   else default_ends
                 in
                 List.iter (fun f -> f locals) ends
               end)
         | Return ->
           let arity = code.c_arity in
           add_pre_event at
             (mk_event ~group:Hook.G_return ~at (fun a _ ->
                a.Analysis.return_ (loc at) (if arity = 0 then [] else [ peek 0 ])));
           List.iter (add_pre at) (end_events (ended_blocks (List.length !ctrl - 1)))
         | Call fi ->
           let ft = func_type_of inst.inst_funcs.(fi) in
           let np = List.length ft.Types.params in
           let nr = List.length ft.Types.results in
           add_pre_event at
             (mk_event ~group:Hook.G_call ~at (fun a _ ->
                let args = List.init np (fun i -> peek (np - 1 - i)) in
                a.Analysis.call_pre (loc at) fi args None));
           add_post_event at
             (mk_event ~group:Hook.G_call ~at (fun a _ ->
                a.Analysis.call_post (loc at) (if nr = 0 then [] else [ peek 0 ])))
         | CallIndirect ti ->
           let ft = inst.inst_types.(ti) in
           let np = List.length ft.Types.params in
           let nr = List.length ft.Types.results in
           add_pre_event at
             (mk_event ~group:Hook.G_call ~at (fun a _ ->
                let tbl = Value.as_i32 (peek 0) in
                let args = List.init np (fun i -> peek (np - i)) in
                a.Analysis.call_pre (loc at) (resolve_indirect_orig c tbl) args
                  (Some (Int32.to_int tbl))));
           add_post_event at
             (mk_event ~group:Hook.G_call ~at (fun a _ ->
                a.Analysis.call_post (loc at) (if nr = 0 then [] else [ peek 0 ])))
         | Drop ->
           add_pre_event at
             (mk_event ~group:Hook.G_drop ~at (fun a _ -> a.Analysis.drop (loc at) (peek 0)))
         | Select ->
           add_pre_event at
             (mk_event ~group:Hook.G_select ~at (fun a _ ->
                a.Analysis.select (loc at) (cond_of (peek 0)) (peek 2) (peek 1)))
         | LocalGet x | LocalSet x | LocalTee x ->
           let opn =
             Hook.local_op_name
               (match ins with
                | LocalGet _ -> Hook.Lget
                | LocalSet _ -> Hook.Lset
                | _ -> Hook.Ltee)
           in
           (* after the instruction the local holds the reported value
              for all three ops, like the AOT [local.get x] argument *)
           add_post_event at
             (mk_event ~group:Hook.G_local ~at (fun a locals ->
                a.Analysis.local (loc at) opn x locals.(x)))
         | GlobalGet x ->
           add_post_event at
             (mk_event ~group:Hook.G_global ~at (fun a _ ->
                a.Analysis.global (loc at) (Hook.global_op_name Hook.Gget) x (peek 0)))
         | GlobalSet x ->
           add_post_event at
             (mk_event ~group:Hook.G_global ~at (fun a _ ->
                a.Analysis.global (loc at) (Hook.global_op_name Hook.Gset) x
                  inst.inst_globals.(x).g_value))
         | Load op ->
           let opn = string_of_instr ins in
           let addr = ref 0l in
           (match
              mk_event ~group:Hook.G_load ~at (fun a _ ->
                a.Analysis.load (loc at) opn
                  { Analysis.addr = !addr; offset = op.loffset }
                  (peek 0))
            with
            | None -> ()
            | Some ev ->
              add_pre at (fun _ -> addr := Value.as_i32 (peek 0));
              add_post at ev)
         | Store op ->
           let opn = string_of_instr ins in
           let addr = ref 0l in
           let v = ref (Value.I32 0l) in
           (match
              mk_event ~group:Hook.G_store ~at (fun a _ ->
                a.Analysis.store (loc at) opn
                  { Analysis.addr = !addr; offset = op.soffset }
                  !v)
            with
            | None -> ()
            | Some ev ->
              add_pre at (fun _ ->
                v := peek 0;
                addr := Value.as_i32 (peek 1));
              add_post at ev)
         | MemorySize ->
           add_post_event at
             (mk_event ~group:Hook.G_memory_size ~at (fun a _ ->
                a.Analysis.memory_size (loc at) (Int32.to_int (Value.as_i32 (peek 0)))))
         | MemoryGrow ->
           let delta = ref 0 in
           (match
              mk_event ~group:Hook.G_memory_grow ~at (fun a _ ->
                a.Analysis.memory_grow (loc at) !delta
                  (Int32.to_int (Value.as_i32 (peek 0))))
            with
            | None -> ()
            | Some ev ->
              add_pre at (fun _ -> delta := Int32.to_int (Value.as_i32 (peek 0)));
              add_post at ev)
         | Const v ->
           add_post_event at
             (mk_event ~group:Hook.G_const ~at (fun a _ -> a.Analysis.const (loc at) v))
         | Test _ | Unary _ | Convert _ ->
           let opn = string_of_instr ins in
           let input = ref (Value.I32 0l) in
           (match
              mk_event ~group:Hook.G_unary ~at (fun a _ ->
                a.Analysis.unary (loc at) opn !input (peek 0))
            with
            | None -> ()
            | Some ev ->
              add_pre at (fun _ -> input := peek 0);
              add_post at ev)
         | Compare _ | Binary _ ->
           let opn = string_of_instr ins in
           let xa = ref (Value.I32 0l) in
           let xb = ref (Value.I32 0l) in
           (match
              mk_event ~group:Hook.G_binary ~at (fun a _ ->
                a.Analysis.binary (loc at) opn !xa !xb (peek 0))
            with
            | None -> ()
            | Some ev ->
              add_pre at (fun _ ->
                xb := peek 0;
                xa := peek 1);
              add_post at ev))
      body;
    let enter_evs =
      (if c.pc_start = Some fidx then
         match
           mk_event ~group:Hook.G_start ~at:(-1) (fun a _ -> a.Analysis.start (loc (-1)))
         with
         | None -> []
         | Some f -> [ f ]
       else [])
      @
      match
        mk_event ~group:Hook.G_begin ~at:(-1) (fun a _ ->
          a.Analysis.begin_ (loc (-1)) Hook.Bfunction)
      with
      | None -> []
      | Some f -> [ f ]
    in
    let exit_ev =
      mk_event ~group:Hook.G_end ~at:n (fun a _ ->
        a.Analysis.end_ (loc n) Hook.Bfunction (loc (-1)))
    in
    match (!any, enter_evs, exit_ev) with
    | false, [], None -> None
    | _ ->
      let compose = function
        | [] -> None
        | [ f ] -> Some f
        | fs -> Some (fun locals -> List.iter (fun f -> f locals) fs)
      in
      Some
        (splice_probes code ~enter:(compose enter_evs)
           ~pre:(Array.map (fun fs -> compose (List.rev fs)) pre)
           ~post:(Array.map (fun fs -> compose (List.rev fs)) post)
           ~exit:exit_ev)

  (** Re-derive every probed body from the current probe set. Functions
      with at least one matching event site get a probed body (deopting
      any tier-1 closure); the rest return to normal tiered execution. *)
  let rebuild c =
    Array.iteri
      (fun j _ ->
         match build_hooks c ~j with
         | Some ph -> probe_function c.pc_inst j ph
         | None -> unprobe_function c.pc_inst j)
      c.pc_inst.inst_code

  let detach_all c =
    Obs.Probe.detach_all c.pc_mgr;
    rebuild c

  (** Create a probe controller for an instance of an {e uninstrumented}
      module and register its snapshot-facing view on the instance:
      [Snapshot.capture] records the attached spec set, restore re-arms
      exactly that set (fresh hit counters). *)
  let create ?registry (inst : instance) (analysis : Analysis.t) : controller =
    let mark = ref (-1L) in
    let c =
      {
        pc_inst = inst;
        pc_analysis = analysis;
        pc_marked = with_mark mark analysis;
        pc_mark = mark;
        pc_mgr = Obs.Probe.create ?registry ();
        pc_prof = None;
        pc_indirect = [||];
        pc_n_imp = num_imported_funcs inst.inst_module;
        pc_start = inst.inst_module.start;
      }
    in
    set_probes inst
      (Some
         {
           ps_capture =
             (fun () ->
                let specs =
                  List.map (fun (e : Obs.Probe.entry) -> e.Obs.Probe.e_spec)
                    (Obs.Probe.entries c.pc_mgr)
                in
                fun () ->
                  Obs.Probe.detach_all c.pc_mgr;
                  List.iter (fun sp -> ignore (Obs.Probe.attach c.pc_mgr sp)) specs;
                  rebuild c);
           ps_detach_all = (fun () -> detach_all c);
         });
    c

  let attach c spec =
    let e = Obs.Probe.attach c.pc_mgr spec in
    rebuild c;
    e

  let detach c e =
    Obs.Probe.detach c.pc_mgr e;
    rebuild c

  (** Parse and validate a probe spec: syntax via {!Obs.Probe.parse_spec},
      group names against the hook vocabulary. *)
  let validate_spec (s : string) : (Obs.Probe.spec, string) result =
    match Obs.Probe.parse_spec s with
    | Error m -> Error m
    | Ok sp ->
      let unknown =
        List.filter
          (fun g ->
             match Hook.group_of_name g with
             | exception Invalid_argument _ -> true
             | _ -> false)
          sp.Obs.Probe.sp_groups
      in
      (match unknown with
       | [] -> Ok sp
       | g :: _ -> Error (Printf.sprintf "unknown hook group %S" g))

  let attach_spec c s =
    match validate_spec s with
    | Error _ as e -> e
    | Ok sp -> Ok (attach c sp)

  (** Attach [spec] once the instance's step counter first reaches
      [step] (checked at batch charge boundaries on every tier). *)
  let attach_at c ~step spec =
    add_step_trigger c.pc_inst ~at:step (fun () -> ignore (attach c spec))

  let detach_at c ~step e = add_step_trigger c.pc_inst ~at:step (fun () -> detach c e)

  (** Attach (or detach) a profiler to the controller's dispatch timing
      and to the instance (per-function and per-run accounting). Probe
      dispatch splits into ["dispatch.probe"] (gate + operand capture up
      to the first analysis-callback entry) and ["dispatch.analysis"]. *)
  let attach_profiler c p =
    c.pc_prof <- p;
    set_profiler c.pc_inst p

  let entries c = Obs.Probe.entries c.pc_mgr
  let all_entries c = Obs.Probe.all_entries c.pc_mgr
  let manager c = c.pc_mgr
end
