(** Abstract syntax of WebAssembly modules (MVP).

    Function bodies are {e flat} instruction sequences in which [Block],
    [Loop], [If], [Else] and [End] appear as ordinary instructions, as in
    the binary format: the paper's code locations are (function index,
    instruction index) pairs counting instructions linearly, including
    block delimiters. *)

open Types

type iunop = Clz | Ctz | Popcnt | Ext8S | Ext16S | Ext32S  (* sign-extension operators; Ext32S is i64-only *)
type funop = Abs | Neg | Sqrt | Ceil | Floor | Trunc | Nearest

type ibinop =
  | Add | Sub | Mul | DivS | DivU | RemS | RemU
  | And | Or | Xor | Shl | ShrS | ShrU | Rotl | Rotr

type fbinop = FAdd | FSub | FMul | FDiv | Min | Max | CopySign
type irelop = Eq | Ne | LtS | LtU | GtS | GtU | LeS | LeU | GeS | GeU
type frelop = FEq | FNe | FLt | FGt | FLe | FGe

type unop = IUn of isize * iunop | FUn of fsize * funop
type binop = IBin of isize * ibinop | FBin of fsize * fbinop
type testop = IEqz of isize
type relop = IRel of isize * irelop | FRel of fsize * frelop

type cvtop =
  | I32WrapI64
  | I32TruncF32S | I32TruncF32U | I32TruncF64S | I32TruncF64U
  | I64ExtendI32S | I64ExtendI32U
  | I64TruncF32S | I64TruncF32U | I64TruncF64S | I64TruncF64U
  | F32ConvertI32S | F32ConvertI32U | F32ConvertI64S | F32ConvertI64U
  | F32DemoteF64
  | F64ConvertI32S | F64ConvertI32U | F64ConvertI64S | F64ConvertI64U
  | F64PromoteF32
  | I32ReinterpretF32 | I64ReinterpretF64 | F32ReinterpretI32 | F64ReinterpretI64
  (* non-trapping float-to-int conversions (post-MVP) *)
  | I32TruncSatF32S | I32TruncSatF32U | I32TruncSatF64S | I32TruncSatF64U
  | I64TruncSatF32S | I64TruncSatF32U | I64TruncSatF64S | I64TruncSatF64U

type pack_size = Pack8 | Pack16 | Pack32
type extension = SX | ZX

type loadop = {
  lty : num_type;
  lalign : int;  (** log2 of the alignment *)
  loffset : int;
  lpack : (pack_size * extension) option;
}

type storeop = {
  sty : num_type;
  salign : int;
  soffset : int;
  spack : pack_size option;
}

(** MVP block types: no result or a single result. *)
type block_type = value_type option

(** Instructions are immutable values. Transformations may share one
    value between many positions, bodies and modules (the instrumenter
    does, for its constants, local accesses and calls), so no code may
    rely on the physical identity of an instruction. *)
type instr =
  | Unreachable
  | Nop
  | Block of block_type
  | Loop of block_type
  | If of block_type
  | Else
  | End
  | Br of int
  | BrIf of int
  | BrTable of int list * int  (** table, default *)
  | Return
  | Call of int
  | CallIndirect of int  (** type index *)
  | Drop
  | Select
  | LocalGet of int
  | LocalSet of int
  | LocalTee of int
  | GlobalGet of int
  | GlobalSet of int
  | Load of loadop
  | Store of storeop
  | MemorySize
  | MemoryGrow
  | Const of Value.t
  | Test of testop
  | Compare of relop
  | Unary of unop
  | Binary of binop
  | Convert of cvtop

type func = {
  ftype : int;  (** index into the module's type section *)
  locals : value_type list;
  body : instr list;  (** implicitly terminated by a final [End] in binary *)
}

type global = {
  gtype : global_type;
  ginit : instr list;  (** constant expression *)
}

type import_desc =
  | FuncImport of int  (** type index *)
  | TableImport of table_type
  | MemoryImport of memory_type
  | GlobalImport of global_type

type import = {
  module_name : string;
  item_name : string;
  idesc : import_desc;
}

type export_desc =
  | FuncExport of int
  | TableExport of int
  | MemoryExport of int
  | GlobalExport of int

type export = {
  name : string;
  edesc : export_desc;
}

type elem_segment = {
  etable : int;
  eoffset : instr list;  (** constant expression *)
  einit : int list;  (** function indices *)
}

type data_segment = {
  dmemory : int;
  doffset : instr list;  (** constant expression *)
  dinit : string;
}

type module_ = {
  types : func_type list;
  imports : import list;
  funcs : func list;
  tables : table_type list;
  memories : memory_type list;
  globals : global list;
  exports : export list;
  start : int option;
  elems : elem_segment list;
  datas : data_segment list;
}


val empty_module : module_

val num_imported_funcs : module_ -> int
(** Imported functions occupy the first indices of the function index
    space (and similarly for the other index spaces below). *)

val num_imported_globals : module_ -> int
val num_imported_tables : module_ -> int
val num_imported_memories : module_ -> int

val num_funcs : module_ -> int
(** Total size of the function index space. *)

val func_type_at : module_ -> int -> Types.func_type
(** Type of the function at an index of the function index space. *)

val global_type_at : module_ -> int -> Types.global_type

val instruction_count : module_ -> int
(** Number of instructions in all function bodies, counting block
    delimiters. *)

val string_of_instr : instr -> string
(** Human-readable mnemonic, e.g. ["i32.add"], ["local.get 0"]. *)
