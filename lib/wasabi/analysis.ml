(** The high-level analysis API (paper, Table 2).

    An analysis implements a subset of these 23 callbacks; {!default} is
    the empty analysis. Each callback receives the {!Location.t} of the
    original instruction. Following the paper's JavaScript API:

    - related instructions are grouped into one hook, distinguished by an
      [op] mnemonic argument (e.g. all 123 numeric instructions map to
      [unary]/[binary]);
    - conditions are passed as [bool];
    - branch hooks receive statically resolved absolute {!Metadata.target}
      locations in addition to the raw relative label;
    - [call_pre] receives the resolved callee for indirect calls;
    - i64 values arrive as full [Value.I64] (the runtime re-joins the two
      i32 halves, as long.js does on the JavaScript side). *)

open Wasm

type memarg = {
  addr : int32;
  offset : int;
}

type t = {
  nop : Location.t -> unit;
  unreachable : Location.t -> unit;
  if_ : Location.t -> bool -> unit;
  br : Location.t -> Metadata.target -> unit;
  br_if : Location.t -> Metadata.target -> bool -> unit;
  br_table : Location.t -> Metadata.target array -> Metadata.target -> int -> unit;
      (** table, default, runtime index *)
  begin_ : Location.t -> Hook.block_kind -> unit;
  end_ : Location.t -> Hook.block_kind -> Location.t -> unit;
      (** location of the end, kind, location of the matching begin *)
  const : Location.t -> Value.t -> unit;
  drop : Location.t -> Value.t -> unit;
  select : Location.t -> bool -> Value.t -> Value.t -> unit;
      (** condition, first, second *)
  unary : Location.t -> string -> Value.t -> Value.t -> unit;
      (** op, input, result *)
  binary : Location.t -> string -> Value.t -> Value.t -> Value.t -> unit;
      (** op, first, second, result *)
  local : Location.t -> string -> int -> Value.t -> unit;
      (** op, index, value *)
  global : Location.t -> string -> int -> Value.t -> unit;
  load : Location.t -> string -> memarg -> Value.t -> unit;
      (** op, memarg, loaded value *)
  store : Location.t -> string -> memarg -> Value.t -> unit;
  memory_size : Location.t -> int -> unit;  (** current size in pages *)
  memory_grow : Location.t -> int -> int -> unit;  (** delta, previous size *)
  call_pre : Location.t -> int -> Value.t list -> int option -> unit;
      (** callee function index (original index space), arguments, and
          [Some table_index] iff the call is indirect *)
  call_post : Location.t -> Value.t list -> unit;
  return_ : Location.t -> Value.t list -> unit;
  start : Location.t -> unit;
}

let nop1 _ = ()
let nop2 _ _ = ()
let nop3 _ _ _ = ()
let nop4 _ _ _ _ = ()
let nop5 _ _ _ _ _ = ()

(** The empty analysis: every hook is a no-op. Build analyses with
    [{ default with binary = ...; ... }]. *)
let default = {
  nop = nop1;
  unreachable = nop1;
  if_ = nop2;
  br = nop2;
  br_if = nop3;
  br_table = nop4;
  begin_ = nop2;
  end_ = nop3;
  const = nop2;
  drop = nop2;
  select = nop4;
  unary = nop4;
  binary = nop5;
  local = nop4;
  global = nop4;
  load = nop4;
  store = nop4;
  memory_size = nop2;
  memory_grow = nop3;
  call_pre = nop4;
  call_post = nop2;
  return_ = nop2;
  start = nop1;
}

(** Sequential composition: both analyses observe every event, [a] first. *)
let combine (a : t) (b : t) : t = {
  nop = (fun l -> a.nop l; b.nop l);
  unreachable = (fun l -> a.unreachable l; b.unreachable l);
  if_ = (fun l c -> a.if_ l c; b.if_ l c);
  br = (fun l t -> a.br l t; b.br l t);
  br_if = (fun l t c -> a.br_if l t c; b.br_if l t c);
  br_table = (fun l tbl d i -> a.br_table l tbl d i; b.br_table l tbl d i);
  begin_ = (fun l k -> a.begin_ l k; b.begin_ l k);
  end_ = (fun l k bl -> a.end_ l k bl; b.end_ l k bl);
  const = (fun l v -> a.const l v; b.const l v);
  drop = (fun l v -> a.drop l v; b.drop l v);
  select = (fun l c x y -> a.select l c x y; b.select l c x y);
  unary = (fun l op i r -> a.unary l op i r; b.unary l op i r);
  binary = (fun l op x y r -> a.binary l op x y r; b.binary l op x y r);
  local = (fun l op i v -> a.local l op i v; b.local l op i v);
  global = (fun l op i v -> a.global l op i v; b.global l op i v);
  load = (fun l op ma v -> a.load l op ma v; b.load l op ma v);
  store = (fun l op ma v -> a.store l op ma v; b.store l op ma v);
  memory_size = (fun l s -> a.memory_size l s; b.memory_size l s);
  memory_grow = (fun l d p -> a.memory_grow l d p; b.memory_grow l d p);
  call_pre = (fun l f args ti -> a.call_pre l f args ti; b.call_pre l f args ti);
  call_post = (fun l rs -> a.call_post l rs; b.call_post l rs);
  return_ = (fun l rs -> a.return_ l rs; b.return_ l rs);
  start = (fun l -> a.start l; b.start l);
}
