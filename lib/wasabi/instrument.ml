(** The Wasabi binary instrumenter (paper, Section 2.4).

    Given a module and a set of hook {e groups} (selective
    instrumentation), produces a new module in which every instruction of
    an enabled group is surrounded by calls to imported low-level hooks.
    The transformation follows Table 3 of the paper:

    - values consumed or produced by an instruction are duplicated through
      freshly generated locals and passed to the hook;
    - hooks are imported functions, monomorphized on demand (one per
      instruction mnemonic and concrete type variant);
    - relative branch labels are resolved to absolute instruction
      locations with an abstract control stack;
    - branches and returns additionally invoke the [end] hooks of every
      block they jump out of ([br_table] entries are extracted statically
      and selected at runtime via {!Metadata});
    - i64 values are split into two i32 halves before being passed to a
      hook.

    Adding the hook imports shifts the indices of all originally defined
    functions, so instrumented code initially calls hooks through
    placeholder indices which a final pass remaps (along with all original
    call sites, element segments, exports and the start function). *)

open Wasm
open Wasm.Types
open Wasm.Ast
open Hook
module Tracker = Validate.Stack_tracker

type result = {
  instrumented : module_;
  metadata : Metadata.t;
  hook_map : Hook.Map.t;
}

(** Abstract control stack entry (paper, Figure 6). *)
type ctrl_entry = {
  ce_kind : Hook.block_kind;
  ce_begin : int;  (** instruction index of the block begin; -1 for the function *)
  ce_end : int;  (** instruction index of the matching [End]; body length for the function *)
}

(* Instructions are immutable values, so the rewriter shares them: the
   output body reuses the input's own instructions, and the instructions
   it adds come from the tables below, one value per index. Nothing may
   rely on the physical identity of an instruction. *)

(** The instructions [mk k] for small non-negative [k], each built on
    first use and shared afterwards; the array grows on demand. Larger
    indices are built afresh. *)
type shared = {
  mutable tbl : instr array;  (** [Nop] marks an entry not built yet *)
  mk : int -> instr;
}

let shared_limit = 1 lsl 16

let shared mk = { tbl = [||]; mk }

let get_shared s k =
  if k < 0 || k >= shared_limit then s.mk k
  else begin
    if k >= Array.length s.tbl then begin
      let n = ref (max 64 (Array.length s.tbl)) in
      while !n <= k do n := 2 * !n done;
      let tbl = Array.make (min !n shared_limit) Nop in
      Array.blit s.tbl 0 tbl 0 (Array.length s.tbl);
      s.tbl <- tbl
    end;
    match Array.unsafe_get s.tbl k with
    | Nop ->
      let i = s.mk k in
      Array.unsafe_set s.tbl k i;
      i
    | i -> i
  end

(** The shared instructions of one [instrument] call. Each instrumenting
    domain has its own set: the tables are not synchronised, and they die
    with the call, so they never outlive one module. *)
type interns = {
  consts : shared;  (** [Const (I32 k)]: location, label and immediate arguments *)
  gets : shared;  (** [LocalGet k] *)
  sets : shared;  (** [LocalSet k] *)
  tees : shared;  (** [LocalTee k] *)
  hook_calls : shared;  (** [Call (placeholder_base + k)]: a call of hook [k] *)
}

let make_interns ~placeholder_base = {
  consts = shared (fun k -> Const (Value.i32_of_int k));
  gets = shared (fun k -> LocalGet k);
  sets = shared (fun k -> LocalSet k);
  tees = shared (fun k -> LocalTee k);
  hook_calls = shared (fun k -> Call (placeholder_base + k));
}

(** A hook requested by the function being instrumented: its ordinal in
    the shared map and how many sites of this function call it. *)
type hook_entry = {
  ord : int;
  mutable reqs : int;
}

type fctx = {
  fidx : int;  (** function-space index of the function being instrumented *)
  mask : int;  (** {!Hook.group_bit}s of the enabled groups *)
  hooks : Hook.Map.t;
  sh : interns;
  tracker : Tracker.t;
  mutable ctrl : ctrl_entry list;
  mutable temps : int array;
      (** local index of the temporary for (slot, type) at
          [4 * slot + type_slot type]; -1 until first use *)
  hook_tbl : (Hook.spec, hook_entry) Hashtbl.t;
      (** per-function cache over the shared, mutex-guarded map; the
          request counts are flushed to the map in one batch when the
          function is done (monomorphization-cache stats) *)
  mutable extra_locals : value_type list;  (** reversed *)
  mutable n_extra : int;
  first_temp : int;
  split_i64 : bool;
  mutable out : instr list;  (** the instrumented body so far, reversed *)
  mutable br_tables : Metadata.br_table_info list;
  mutable dead_skipped : int list;
      (** instruction indices where instrumentation was skipped because the
          stack type is polymorphic (statically-unreachable code) *)
  facts : Static.Absint.t option;
      (** whole-module abstract-interpretation facts ([~fold] mode);
          read-only, so safe to share across instrumentation domains *)
  mutable folded : (int * Value.t list option) list;
      (** hook sites discharged statically: [(at, None)] = proven dead,
          [(at, Some vs)] = hook value arguments proven constant *)
}

let enabled c g = c.mask land Hook.group_bit g <> 0

let emit c i = c.out <- i :: c.out

let const_minus_one = Const (Value.I32 (-1l))

let iconst c k = if k = -1 then const_minus_one else get_shared c.sh.consts k
let local_get c l = get_shared c.sh.gets l
let local_set c l = get_shared c.sh.sets l
let local_tee c l = get_shared c.sh.tees l

let type_slot = function I32T -> 0 | I64T -> 1 | F32T -> 2 | F64T -> 3

(** Fresh (or reused) local of type [ty]; [slot] distinguishes temporaries
    that must coexist within one instrumented instruction. Temporaries are
    reused across instructions, so each function gains only a handful of
    locals. *)
let temp c ty slot =
  let k = (4 * slot) + type_slot ty in
  if k >= Array.length c.temps then begin
    let temps = Array.make (max (k + 1) (2 * Array.length c.temps)) (-1) in
    Array.blit c.temps 0 temps 0 (Array.length c.temps);
    c.temps <- temps
  end;
  match c.temps.(k) with
  | -1 ->
    let i = c.first_temp + c.n_extra in
    c.n_extra <- c.n_extra + 1;
    c.extra_locals <- ty :: c.extra_locals;
    c.temps.(k) <- i;
    i
  | i -> i

(** A branch/return in statically-unreachable code: its operand types are
    polymorphic, so no hook arguments can be materialised. The site is
    recorded so the lint can surface it instead of a silent fallthrough. *)
let skip_dead c ~at ins =
  c.dead_skipped <- at :: c.dead_skipped;
  emit c ins

(** Push the value held in local [l] (of type [ty]) as hook argument(s):
    i64 values are split into low and high i32 halves (Table 3, row 6)
    unless splitting is disabled (native-host ablation). *)
let push_local c ty l =
  let get = local_get c l in
  emit c get;
  if ty = I64T && c.split_i64 then begin
    emit c (Convert I32WrapI64);
    emit c get;
    emit c (Const (Value.I64 32L));
    emit c (Binary (IBin (S64, ShrS)));
    emit c (Convert I32WrapI64)
  end

(** Push the constant instruction [k] as hook argument(s); for i64 the
    paper's row 6 sequence (duplicate, wrap / shift, wrap) is emitted. *)
let push_const c k =
  emit c k;
  match k with
  | Const (Value.I64 _) when c.split_i64 ->
    emit c (Convert I32WrapI64);
    emit c k;
    emit c (Const (Value.I64 32L));
    emit c (Binary (IBin (S64, ShrS)));
    emit c (Convert I32WrapI64)
  | _ -> ()

(** Hook value arguments provable constant at instruction [at] from
    whole-module abstract-interpretation facts, in hook-argument order.
    [None] when the arguments are not all singletons or the instruction's
    hook takes no foldable value arguments. Facts {e before} [at] describe
    the operands an instruction consumes; facts before [at + 1] describe
    the value it pushes (joins at block boundaries only widen, so a
    singleton there is still exact). Shared with {!Lint}, which recomputes
    this on the original module to verify [Metadata.F_args] claims. *)
let static_fold_args fx ~func ~at (ins : instr) : Value.t list option =
  let v depth = Static.Interval.singleton (Static.Absint.value_at fx ~func ~pc:at ~depth) in
  let next depth =
    Static.Interval.singleton (Static.Absint.value_at fx ~func ~pc:(at + 1) ~depth)
  in
  match ins with
  | If _ | BrIf _ | BrTable _ | Drop | LocalSet _ | LocalTee _ | GlobalSet _ | Return ->
    (* the consumed operand: top of stack before the instruction *)
    (match v 0 with Some x -> Some [ x ] | None -> None)
  | LocalGet _ | GlobalGet _ ->
    (* the produced value: top of stack after the instruction *)
    (match next 0 with Some x -> Some [ x ] | None -> None)
  | Test _ | Unary _ | Convert _ ->
    (match v 0, next 0 with Some a, Some r -> Some [ a; r ] | _ -> None)
  | Compare _ | Binary _ ->
    (match v 1, v 0, next 0 with
     | Some a, Some b, Some r -> Some [ a; b; r ]
     | _ -> None)
  | _ -> None

(** Constant hook arguments for this site, when folding is on and the
    abstract-interpretation facts pin every runtime value argument. *)
let fold_args c ~at ins =
  match c.facts with
  | None -> None
  | Some fx -> static_fold_args fx ~func:c.fidx ~at ins

let record_fold c ~at vs = c.folded <- (at, Some vs) :: c.folded

(** The entry of hook [spec], asking the shared map for its ordinal on
    the function's first request (which generates the hook if no
    function asked before). *)
let hook_entry c spec =
  match Hashtbl.find c.hook_tbl spec with
  | e -> e
  | exception Not_found ->
    let e = { ord = Hook.Map.ordinal c.hooks spec; reqs = 0 } in
    Hashtbl.add c.hook_tbl spec e;
    e

(** A hook call is emitted in three steps: [hook_open] pushes the two
    location arguments, the caller pushes the hook's own arguments, and
    [hook_close] emits the call of hook [spec]. *)
let hook_open c ~at =
  emit c (iconst c c.fidx);
  emit c (iconst c at)

let hook_close c spec =
  let e = hook_entry c spec in
  e.reqs <- e.reqs + 1;
  emit c (get_shared c.sh.hook_calls e.ord)

(** A call of a hook that takes no arguments beyond its location. *)
let hook_call c ~at spec =
  hook_open c ~at;
  hook_close c spec

(** A call of a hook whose one argument is pushed by [arg]. *)
let hook_call1 c ~at spec arg =
  hook_open c ~at;
  emit c arg;
  hook_close c spec

(** Save the i32 on top of the stack to a temporary, leaving it in place;
    returns the instruction that pushes it again. *)
let tee_i32 c =
  let t = temp c I32T 0 in
  emit c (local_tee c t);
  local_get c t

(** Instruction index executed next if a branch to [e] is taken. *)
let target_instr (e : ctrl_entry) =
  match e.ce_kind with
  | Hook.Bloop -> e.ce_begin + 1
  | Hook.Bfunction -> e.ce_end  (* the implicit end of the function *)
  | Hook.Bblock | Hook.Bif | Hook.Belse -> e.ce_end + 1

let ctrl_at c l =
  let rec go l = function
    | e :: _ when l = 0 -> e
    | _ :: rest -> go (l - 1) rest
    | [] -> invalid_arg (Printf.sprintf "branch label %d exceeds control stack" l)
  in
  go l c.ctrl

let resolve_target c l : Metadata.target =
  { Metadata.label = l; target_loc = Location.make ~func:c.fidx ~instr:(target_instr (ctrl_at c l)) }

(** Blocks exited by a taken branch with label [l]: control-stack entries
    0..l, innermost first (paper, Section 2.4.5). *)
let ended_blocks c l =
  List.filteri (fun i _ -> i <= l) c.ctrl
  |> List.map (fun e ->
    { Metadata.eb_kind = e.ce_kind;
      eb_end_loc = Location.make ~func:c.fidx ~instr:e.ce_end;
      eb_begin_instr = e.ce_begin })

let end_spec = function
  | Bfunction -> S_end Bfunction
  | Bblock -> S_end Bblock
  | Bloop -> S_end Bloop
  | Bif -> S_end Bif
  | Belse -> S_end Belse

(** Apply [f] to the control-stack entries a taken branch with label [l]
    exits, innermost first. *)
let iter_ended c l f =
  let rec go i = function
    | e :: rest when i <= l ->
      f e;
      go (i + 1) rest
    | _ -> ()
  in
  go 0 c.ctrl

(** Explicit calls to the [end] hooks of all blocks a branch with label
    [l] jumps out of. *)
let end_hook_calls c l =
  iter_ended c l (fun e -> hook_call1 c ~at:e.ce_end (end_spec e.ce_kind) (iconst c e.ce_begin))

(** The [br]/[br_if] hook's location, label and target arguments. *)
let open_branch_hook c ~at l =
  hook_open c ~at;
  emit c (iconst c l);
  emit c (iconst c (target_instr (ctrl_at c l)))

let push_ctrl c kind ~at (jumps : Interp.jump_info) =
  c.ctrl <- { ce_kind = kind; ce_begin = at; ce_end = jumps.Interp.end_of.(at) } :: c.ctrl

let pop_ctrl c what =
  match c.ctrl with
  | e :: rest ->
    c.ctrl <- rest;
    e
  | [] -> invalid_arg what

(** The save / call-pre / restore / call / save / call-post / restore
    sequence for direct and indirect calls (Table 3, row 3). [callee] is
    the direct callee's index; an indirect call instead passes the table
    index it pops, saved to a temporary. *)
let instrument_call c ~at ~(ft : func_type) ~callee ~indirect ~original =
  let n = List.length ft.params in
  List.iteri (fun j ty -> ignore (temp c ty j)) ft.params;
  let ti = if indirect then temp c I32T n else -1 in
  if indirect then emit c (local_set c ti);
  (* the arguments are popped last one first *)
  let rec saves j = function
    | [] -> ()
    | ty :: rest ->
      saves (j + 1) rest;
      emit c (local_set c (temp c ty j))
  in
  saves 0 ft.params;
  hook_open c ~at;
  emit c (if indirect then local_get c ti else iconst c callee);
  List.iteri (fun j ty -> push_local c ty (temp c ty j)) ft.params;
  hook_close c (Hook.S_call_pre (ft.params, indirect));
  List.iteri (fun j ty -> emit c (local_get c (temp c ty j))) ft.params;
  if indirect then emit c (local_get c ti);
  emit c original;
  match ft.results with
  | [] -> hook_call c ~at (Hook.S_call_post [])
  | [ rt ] ->
    let tr = temp c rt (n + 1) in
    emit c (local_tee c tr);
    hook_open c ~at;
    push_local c rt tr;
    hook_close c (Hook.S_call_post ft.results)
  | _ -> invalid_arg "multiple results not supported"

(** How a [return] hook receives the returned value. *)
type ret_arg =
  | No_arg  (** no result, or no [return] hook *)
  | Folded of Value.t  (** proven constant: passed as an immediate *)
  | Saved of value_type * int  (** saved to a temporary around the hooks *)

(** Emit the instrumented replacement of the original instruction at index
    [at]. Must be called before [Tracker.step] for this instruction (it
    inspects the abstract stack), and takes care of the control-stack
    bookkeeping itself. *)
let instrument_instr_live c ~at (ins : instr) (jumps : Interp.jump_info) =
  match ins with
  | Nop ->
    emit c ins;
    if enabled c G_nop then hook_call c ~at S_nop
  | Unreachable ->
    if enabled c G_unreachable then hook_call c ~at S_unreachable;
    emit c ins
  | Block _ ->
    push_ctrl c Bblock ~at jumps;
    emit c ins;
    if enabled c G_begin then hook_call c ~at (S_begin Bblock)
  | Loop _ ->
    push_ctrl c Bloop ~at jumps;
    emit c ins;
    (* the hook sits inside the loop: it fires once per iteration *)
    if enabled c G_begin then hook_call c ~at (S_begin Bloop)
  | If _ ->
    if enabled c G_if then begin
      match fold_args c ~at ins with
      | Some [ k ] ->
        (* constant condition: pass it as an immediate, no duplication *)
        record_fold c ~at [ k ];
        hook_call1 c ~at S_if_cond (Const k)
      | _ ->
        (match Tracker.peek c.tracker 0 with
         | Validate.Known _ -> hook_call1 c ~at S_if_cond (tee_i32 c)
         | Validate.Unknown -> ())
    end;
    push_ctrl c Bif ~at jumps;
    emit c ins;
    if enabled c G_begin then hook_call c ~at (S_begin Bif)
  | Else ->
    let e = pop_ctrl c "else without open block" in
    (* the then-branch ends here; the else-branch begins *)
    c.ctrl <- { e with ce_kind = Belse; ce_begin = at } :: c.ctrl;
    if enabled c G_end then hook_call1 c ~at (S_end Bif) (iconst c e.ce_begin);
    emit c ins;
    if enabled c G_begin then hook_call c ~at (S_begin Belse)
  | End ->
    let e = pop_ctrl c "unbalanced end" in
    if enabled c G_end then hook_call1 c ~at (end_spec e.ce_kind) (iconst c e.ce_begin);
    emit c ins
  | Br l ->
    if enabled c G_br then begin
      open_branch_hook c ~at l;
      hook_close c S_br
    end;
    if enabled c G_end then end_hook_calls c l;
    emit c ins
  | BrIf l ->
    if enabled c G_br_if || enabled c G_end then begin
      match fold_args c ~at ins with
      | Some [ Value.I32 k as kv ] ->
        (* constant condition: the branch outcome is statically decided,
           so the end hooks need no runtime guard *)
        record_fold c ~at [ kv ];
        if enabled c G_br_if then begin
          open_branch_hook c ~at l;
          emit c (Const kv);
          hook_close c S_br_if
        end;
        if enabled c G_end && k <> 0l then end_hook_calls c l;
        emit c ins
      | _ ->
      match Tracker.peek c.tracker 0 with
      | Validate.Unknown -> skip_dead c ~at ins
      | Validate.Known _ ->
        let cond = tee_i32 c in
        if enabled c G_br_if then begin
          open_branch_hook c ~at l;
          emit c cond;
          hook_close c S_br_if
        end;
        if enabled c G_end then begin
          emit c cond;
          emit c (If None);
          end_hook_calls c l;
          emit c End
        end;
        emit c ins
    end
    else emit c ins
  | BrTable (ls, d) ->
    if enabled c G_br_table || enabled c G_end then begin
      match Tracker.peek c.tracker 0 with
      | Validate.Unknown -> skip_dead c ~at ins
      | Validate.Known _ ->
        let entry l = (resolve_target c l, ended_blocks c l) in
        c.br_tables <-
          { Metadata.bt_loc = Location.make ~func:c.fidx ~instr:at;
            bt_targets = Array.of_list (List.map entry ls);
            bt_default = entry d }
          :: c.br_tables;
        (* end hooks are selected and called at runtime from the metadata *)
        (match fold_args c ~at ins with
         | Some [ kv ] ->
           record_fold c ~at [ kv ];
           hook_call1 c ~at S_br_table (Const kv)
         | _ -> hook_call1 c ~at S_br_table (tee_i32 c));
        emit c ins
    end
    else emit c ins
  | Return ->
    let want_ret = enabled c G_return in
    let want_end = enabled c G_end in
    if not (want_ret || want_end) then emit c ins
    else begin
      let results = (Tracker.results c.tracker : value_type list) in
      let arg =
        match results with
        | [] -> Some No_arg
        | _ when not want_ret -> Some No_arg
        | [ rt ] ->
          (match fold_args c ~at ins with
           | Some [ v ] ->
             (* constant result: no save/restore around the hook *)
             record_fold c ~at [ v ];
             Some (Folded v)
           | _ ->
           match Tracker.peek c.tracker 0 with
           | Validate.Unknown -> None
           | Validate.Known _ -> Some (Saved (rt, temp c rt 0)))
        | _ -> invalid_arg "multiple results not supported"
      in
      match arg with
      | None -> skip_dead c ~at ins
      | Some arg ->
        let ret_depth = List.length c.ctrl - 1 in
        (* hooks are numbered in order of first request, and the end
           hooks are requested before the return hook *)
        if want_ret && want_end then
          iter_ended c ret_depth (fun e -> ignore (hook_entry c (end_spec e.ce_kind)));
        (* the end-hook calls are stack neutral, so the result value only
           needs saving around the return hook itself *)
        (match arg with Saved (_, tr) -> emit c (local_set c tr) | _ -> ());
        if want_ret then begin
          hook_open c ~at;
          (match arg with
           | Folded v -> push_const c (Const v)
           | Saved (rt, tr) -> push_local c rt tr
           | No_arg -> ());
          hook_close c (Hook.S_return results)
        end;
        if want_end then end_hook_calls c ret_depth;
        (match arg with Saved (_, tr) -> emit c (local_get c tr) | _ -> ());
        emit c ins
    end
  | Call f ->
    if enabled c G_call then
      instrument_call c ~at ~ft:(Tracker.func_type c.tracker f) ~callee:f ~indirect:false
        ~original:ins
    else emit c ins
  | CallIndirect ti ->
    if enabled c G_call then
      instrument_call c ~at ~ft:(Tracker.type_at c.tracker ti) ~callee:(-1) ~indirect:true
        ~original:ins
    else emit c ins
  | Drop ->
    if enabled c G_drop then
      match Tracker.peek c.tracker 0 with
      | Validate.Unknown -> emit c ins
      | Validate.Known ty ->
        (match fold_args c ~at ins with
         | Some [ v ] ->
           record_fold c ~at [ v ];
           emit c ins;
           hook_open c ~at;
           push_const c (Const v)
         | _ ->
           let t = temp c ty 0 in
           (* the hook consumes the value in place of the drop (Table 3, row 4) *)
           emit c (local_set c t);
           hook_open c ~at;
           push_local c ty t);
        hook_close c (S_drop ty)
    else emit c ins
  | Select ->
    let ty =
      if not (enabled c G_select) then None
      else
        match Tracker.peek c.tracker 1, Tracker.peek c.tracker 2 with
        | Validate.Known ty, _ | _, Validate.Known ty -> Some ty
        | Validate.Unknown, Validate.Unknown -> None
    in
    (match ty with
     | None -> emit c ins
     | Some ty ->
       let tc = temp c I32T 0 in
       let t2 = temp c ty 1 in
       let t1 = temp c ty 2 in
       emit c (local_set c tc);
       emit c (local_set c t2);
       emit c (local_set c t1);
       hook_open c ~at;
       emit c (local_get c tc);
       push_local c ty t1;
       push_local c ty t2;
       hook_close c (S_select ty);
       emit c (local_get c t1);
       emit c (local_get c t2);
       emit c (local_get c tc);
       emit c ins)
  | LocalGet x | LocalSet x | LocalTee x ->
    emit c ins;
    if enabled c G_local then begin
      let ty = Tracker.local_type c.tracker x in
      let op =
        match ins with
        | LocalGet _ -> Lget
        | LocalSet _ -> Lset
        | _ -> Ltee
      in
      hook_open c ~at;
      emit c (iconst c x);
      (match fold_args c ~at ins with
       | Some [ v ] ->
         record_fold c ~at [ v ];
         push_const c (Const v)
       | _ -> push_local c ty x);
      hook_close c (S_local (op, ty))
    end
  | GlobalGet x | GlobalSet x ->
    if enabled c G_global then begin
      let ty = (Tracker.global_type c.tracker x).content in
      let op = match ins with GlobalGet _ -> Gget | _ -> Gset in
      (match fold_args c ~at ins with
       | Some [ v ] ->
         record_fold c ~at [ v ];
         emit c ins;
         hook_open c ~at;
         emit c (iconst c x);
         push_const c (Const v)
       | _ ->
         let t = temp c ty 0 in
         if op = Gget then begin
           emit c ins;
           emit c (local_tee c t)
         end
         else begin
           emit c (local_tee c t);
           emit c ins
         end;
         hook_open c ~at;
         emit c (iconst c x);
         push_local c ty t);
      hook_close c (S_global (op, ty))
    end
    else emit c ins
  | Load op ->
    if enabled c G_load then begin
      let ta = temp c I32T 0 in
      let tv = temp c op.lty 1 in
      emit c (local_tee c ta);
      emit c ins;
      emit c (local_tee c tv);
      hook_open c ~at;
      emit c (local_get c ta);
      emit c (iconst c op.loffset);
      push_local c op.lty tv;
      hook_close c (S_load (string_of_instr ins, op.lty))
    end
    else emit c ins
  | Store op ->
    if enabled c G_store then begin
      let tv = temp c op.sty 1 in
      let ta = temp c I32T 0 in
      emit c (local_set c tv);
      emit c (local_tee c ta);
      emit c (local_get c tv);
      emit c ins;
      hook_open c ~at;
      emit c (local_get c ta);
      emit c (iconst c op.soffset);
      push_local c op.sty tv;
      hook_close c (S_store (string_of_instr ins, op.sty))
    end
    else emit c ins
  | MemorySize ->
    emit c ins;
    if enabled c G_memory_size then hook_call1 c ~at S_memory_size (tee_i32 c)
  | MemoryGrow ->
    if enabled c G_memory_grow then begin
      let td = temp c I32T 0 in
      let tp = temp c I32T 1 in
      emit c (local_tee c td);
      emit c ins;
      emit c (local_tee c tp);
      hook_open c ~at;
      emit c (local_get c td);
      emit c (local_get c tp);
      hook_close c S_memory_grow
    end
    else emit c ins
  | Const v ->
    emit c ins;
    if enabled c G_const then begin
      hook_open c ~at;
      push_const c ins;
      hook_close c (S_const (Value.type_of v))
    end
  | Test _ | Unary _ | Convert _ ->
    if enabled c G_unary then begin
      let it, rt =
        match ins with
        | Test (IEqz sz) -> (num_type_of_isize sz, I32T)
        | Unary (IUn (sz, _)) -> (num_type_of_isize sz, num_type_of_isize sz)
        | Unary (FUn (sz, _)) -> (num_type_of_fsize sz, num_type_of_fsize sz)
        | Convert op -> Tracker.cvt_types op
        | _ -> assert false
      in
      (match fold_args c ~at ins with
       | Some [ vin; vres ] ->
         record_fold c ~at [ vin; vres ];
         emit c ins;
         hook_open c ~at;
         push_const c (Const vin);
         push_const c (Const vres)
       | _ ->
         let t_in = temp c it 0 in
         let t_res = temp c rt 1 in
         emit c (local_tee c t_in);
         emit c ins;
         emit c (local_tee c t_res);
         hook_open c ~at;
         push_local c it t_in;
         push_local c rt t_res);
      hook_close c (S_unary (string_of_instr ins, it, rt))
    end
    else emit c ins
  | Compare _ | Binary _ ->
    if enabled c G_binary then begin
      let ot, rt =
        match ins with
        | Compare (IRel (sz, _)) -> (num_type_of_isize sz, I32T)
        | Compare (FRel (sz, _)) -> (num_type_of_fsize sz, I32T)
        | Binary (IBin (sz, _)) -> (num_type_of_isize sz, num_type_of_isize sz)
        | Binary (FBin (sz, _)) -> (num_type_of_fsize sz, num_type_of_fsize sz)
        | _ -> assert false
      in
      (match fold_args c ~at ins with
       | Some [ va; vb; vr ] ->
         record_fold c ~at [ va; vb; vr ];
         emit c ins;
         hook_open c ~at;
         push_const c (Const va);
         push_const c (Const vb);
         push_const c (Const vr)
       | _ ->
         let ta = temp c ot 0 in
         let tb = temp c ot 1 in
         let tr = temp c rt 2 in
         emit c (local_set c tb);
         emit c (local_tee c ta);
         emit c (local_get c tb);
         emit c ins;
         emit c (local_tee c tr);
         hook_open c ~at;
         push_local c ot ta;
         push_local c ot tb;
         push_local c rt tr);
      hook_close c (S_binary (string_of_instr ins, ot, ot, rt))
    end
    else emit c ins

(** Would any enabled group emit hooks at this instruction? Used to
    decide whether dropping the hooks of a statically-dead site is worth
    recording. Structured control instructions are excluded: their arms
    also maintain the control stack, so they are never dead-folded. *)
let would_hook c = function
  | Block _ | Loop _ | If _ | Else | End -> false
  | Nop -> enabled c G_nop
  | Unreachable -> enabled c G_unreachable
  | Br _ -> enabled c G_br || enabled c G_end
  | BrIf _ -> enabled c G_br_if || enabled c G_end
  | BrTable _ -> enabled c G_br_table || enabled c G_end
  | Return -> enabled c G_return || enabled c G_end
  | Call _ | CallIndirect _ -> enabled c G_call
  | Drop -> enabled c G_drop
  | Select -> enabled c G_select
  | LocalGet _ | LocalSet _ | LocalTee _ -> enabled c G_local
  | GlobalGet _ | GlobalSet _ -> enabled c G_global
  | Load _ -> enabled c G_load
  | Store _ -> enabled c G_store
  | MemorySize -> enabled c G_memory_size
  | MemoryGrow -> enabled c G_memory_grow
  | Const _ -> enabled c G_const
  | Test _ | Unary _ | Convert _ -> enabled c G_unary
  | Compare _ | Binary _ -> enabled c G_binary

(** In [~fold] mode a site the abstract interpretation proves unreachable
    keeps its instruction verbatim: no hook can ever fire there, so none
    is emitted ([Metadata.F_dead], verified by the lint against the
    recomputed facts). Everything else goes through the normal per-arm
    instrumentation (which may still fold constant arguments). *)
let instrument_instr c ~at (ins : instr) (jumps : Interp.jump_info) =
  match c.facts with
  | Some fx when would_hook c ins && not (Static.Absint.live fx ~func:c.fidx ~pc:at) ->
    c.folded <- (at, None) :: c.folded;
    emit c ins
  | _ -> instrument_instr_live c ~at ins jumps

(** One function's instrumentation, before the final remapping pass. *)
type func_result = {
  fr_func : func;  (** the original function, its locals extended by the temporaries *)
  fr_body : instr array;
      (** the instrumented body, calling hooks through placeholder indices.
          An array, not a list: it lives until every function is done, so
          the GC promotes and scans it, and it has a third of a list's words *)
  fr_br_tables : Metadata.br_table_info list;
  fr_dead_skipped : int list;
  fr_folded : (int * Value.t list option) list;
}

(* The body arrays are built from [Nop] rather than from an element of
   the list: [Array.make] of a large array with a young initial value
   forces a minor collection, once per function. *)

let array_of_list l =
  let a = Array.make (List.length l) Nop in
  List.iteri (fun i ins -> a.(i) <- ins) l;
  a

(** The array of the reversed list [rev], in forward order. *)
let array_of_rev_list rev =
  let n = List.length rev in
  let a = Array.make n Nop in
  List.iteri (fun i ins -> a.(n - 1 - i) <- ins) rev;
  a

let instrument_func ~mask ~hooks ~sh ~split_i64 ~vctx ~fidx ~is_start ~facts (f : func) =
  let body = array_of_list f.body in
  let jumps = Interp.compute_jumps body in
  let params = vctx.Validate.Module_ctx.types.(f.ftype).params in
  let c = {
    fidx;
    mask;
    hooks;
    sh;
    tracker = Tracker.create_in vctx f;
    ctrl = [ { ce_kind = Bfunction; ce_begin = -1; ce_end = Array.length body } ];
    temps = Array.make 16 (-1);
    hook_tbl = Hashtbl.create 32;
    extra_locals = [];
    n_extra = 0;
    first_temp = List.length params + List.length f.locals;
    split_i64;
    out = [];
    br_tables = [];
    dead_skipped = [];
    facts;
    folded = [];
  } in
  if is_start && enabled c G_start then hook_call c ~at:(-1) S_start;
  if enabled c G_begin then hook_call c ~at:(-1) (S_begin Bfunction);
  Array.iteri
    (fun at ins ->
       instrument_instr c ~at ins jumps;
       Tracker.step c.tracker ins)
    body;
  if enabled c G_end then
    hook_call1 c ~at:(Array.length body) (S_end Bfunction) const_minus_one;
  Hook.Map.note_requests hooks (Hashtbl.fold (fun s e acc -> (s, e.reqs) :: acc) c.hook_tbl []);
  { fr_func = { f with locals = f.locals @ List.rev c.extra_locals };
    fr_body = array_of_rev_list c.out;
    fr_br_tables = c.br_tables;
    fr_dead_skipped = List.rev c.dead_skipped;
    fr_folded = List.rev c.folded }

(** Remap a function index after hook imports have been inserted.
    [n_imp] original imported functions keep their indices; the [h] hooks
    take indices [n_imp .. n_imp+h-1]; originally defined functions shift
    up by [h]. Instrumented code refers to hook [k] through the
    placeholder index [n_orig + k]. *)
let remap_index ~n_imp ~n_orig ~h idx =
  if idx < n_imp then idx
  else if idx >= n_orig then n_imp + (idx - n_orig)  (* hook placeholder *)
  else idx + h

(** Instrument the defined functions, optionally across several domains:
    functions are independent — the only shared state is the mutex-guarded
    monomorphization map (paper, Section 3); each domain has its own
    shared-instruction tables. Results are kept in function order
    regardless of scheduling. Pruned functions keep their body verbatim;
    the remapping pass fixes their call sites like everyone else's. *)
let instrument_functions ~mask ~hooks ~split_i64 ~vctx ~n_imp ~n_orig ~start ~domains ~pruned
    ~facts funcs =
  let arr = Array.of_list funcs in
  let results = Array.make (Array.length arr) None in
  let one sh i f =
    let fidx = n_imp + i in
    results.(i) <-
      Some
        (if pruned.(fidx) then
           { fr_func = f; fr_body = array_of_list f.body; fr_br_tables = [];
             fr_dead_skipped = []; fr_folded = [] }
         else
           instrument_func ~mask ~hooks ~sh ~split_i64 ~vctx ~fidx
             ~is_start:(start = Some fidx) ~facts f)
  in
  let interns () = make_interns ~placeholder_base:n_orig in
  if domains <= 1 || Array.length arr < 2 then Array.iteri (one (interns ())) arr
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let sh = interns () in
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < Array.length arr then begin
          one sh i arr.(i);
          go ()
        end
      in
      go ()
    in
    let spawned = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned
  end;
  Array.map Option.get results

(** Instrument [m] for the hook groups in [groups] (defaults to all).
    [domains] > 1 instruments functions in parallel (hook ordinals then
    depend on scheduling, but the output is always valid and equivalent).
    The input module must be valid. *)
let instrument ?(groups = Hook.all) ?(split_i64 = true) ?(domains = 1)
    ?(prune_unreachable = false) ?(fold = false) (m : module_) : result =
  Obs.Span.with_ "instrument" @@ fun () ->
  let hooks = Hook.Map.create () in
  let vctx = Validate.Module_ctx.create m in
  let n_imp = num_imported_funcs m in
  let n_orig = num_funcs m in
  let facts =
    if fold then
      Some (Obs.Span.with_ "instrument.absint" @@ fun () -> Static.Absint.analyze m)
    else None
  in
  let pruned_funcs =
    if prune_unreachable then
      Obs.Span.with_ "instrument.prune" @@ fun () ->
      (* with folding on, prune against the abstract-interpretation call
         graph: resolved indirect targets expose more dead functions *)
      Static.Callgraph.dead_functions (Static.Callgraph.build ~precise:fold m)
    else []
  in
  let pruned = Array.make n_orig false in
  List.iter (fun i -> pruned.(i) <- true) pruned_funcs;
  let mask = Hook.Group_set.fold (fun g acc -> acc lor Hook.group_bit g) groups 0 in
  let results =
    Obs.Span.with_ "instrument.functions" @@ fun () ->
    instrument_functions ~mask ~hooks ~split_i64 ~vctx ~n_imp ~n_orig ~start:m.start ~domains
      ~pruned ~facts m.funcs
  in
  Obs.Span.with_ "instrument.assemble" @@ fun () ->
  let h = Hook.Map.count hooks in
  let specs = Hook.Map.specs hooks in
  (* add hook signatures to the type section, re-using existing entries
     (the last of equal ones) *)
  let type_ids = Hashtbl.create 64 in
  List.iteri (fun i ft -> Hashtbl.replace type_ids ft i) m.types;
  let new_types = ref [] in
  let n_types = ref (List.length m.types) in
  let type_index ft =
    match Hashtbl.find_opt type_ids ft with
    | Some i -> i
    | None ->
      let i = !n_types in
      Hashtbl.add type_ids ft i;
      new_types := ft :: !new_types;
      incr n_types;
      i
  in
  let hook_imports =
    Array.to_list specs
    |> List.map (fun spec ->
      { module_name = Hook.import_module;
        item_name = Hook.name spec;
        idesc = FuncImport (type_index (Hook.signature ~split_i64 spec)) })
  in
  let remap = remap_index ~n_imp ~n_orig ~h in
  (* every call site, original or hook placeholder, is remapped through
     one pre-built instruction per index *)
  let calls = Array.init (n_orig + h) (fun i -> Call (remap i)) in
  let remap_instr = function Call f -> calls.(f) | i -> i in
  let br_tables = ref Location.Map.empty in
  let dead_skipped = ref [] in
  let folded_sites = ref [] in
  let funcs =
    Array.to_list
      (Array.mapi
         (fun i r ->
            let func = n_imp + i in
            List.iter
              (fun (bt : Metadata.br_table_info) ->
                 br_tables := Location.Map.add bt.bt_loc bt !br_tables)
              r.fr_br_tables;
            List.iter
              (fun at -> dead_skipped := Location.make ~func ~instr:at :: !dead_skipped)
              r.fr_dead_skipped;
            List.iter
              (fun (at, args) ->
                 let loc = Location.make ~func ~instr:at in
                 folded_sites :=
                   (match args with
                    | None -> Metadata.F_dead loc
                    | Some vs -> Metadata.F_args (loc, vs))
                   :: !folded_sites)
              r.fr_folded;
            let body = Array.fold_right (fun i acc -> remap_instr i :: acc) r.fr_body [] in
            { r.fr_func with body })
         results)
  in
  let instrumented = {
    m with
    types = m.types @ List.rev !new_types;
    imports = m.imports @ hook_imports;
    funcs;
    exports =
      List.map
        (fun e ->
           match e.edesc with
           | FuncExport i -> { e with edesc = FuncExport (remap i) }
           | _ -> e)
        m.exports;
    start = Option.map remap m.start;
    elems =
      List.map (fun e -> { e with einit = List.map remap e.einit }) m.elems;
  } in
  let metadata = {
    Metadata.original = m;
    groups;
    split_i64;
    br_tables = !br_tables;
    num_hooks = h;
    hook_specs = specs;
    num_original_func_imports = n_imp;
    func_names = Metadata.extract_func_names m;
    dead_skipped = List.rev !dead_skipped;
    pruned_funcs;
    folded = List.rev !folded_sites;
  } in
  { instrumented; metadata; hook_map = hooks }
