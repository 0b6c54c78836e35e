(** The high-level analysis API (paper, Table 2): the 23 hooks an
    analysis may implement. Conditions arrive as [bool], branch hooks get
    statically resolved absolute targets, [call_pre] gets resolved
    indirect callees, and i64 values arrive re-joined as [Value.I64]. *)

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


val default : t
(** The empty analysis: every hook is a no-op. Build analyses with
    [{ default with binary = ...; ... }]. *)

val combine : t -> t -> t
(** Sequential composition: both analyses observe every event. *)
