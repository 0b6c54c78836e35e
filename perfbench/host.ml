(** Timing against the host's current speed.

    On a shared host the speed a process gets moves by tens of percent
    from one second to the next and from one minute to the next (another
    tenant on the sibling hardware thread, frequency, CPU steal), far
    more than a regression a gate should catch. Two things take that
    out of a timing:

    - Times are process CPU time ([getrusage], all domains), so time the
      hypervisor gives to other tenants (steal) and time other processes
      hold the CPU do not count.
    - Each timed call is bracketed by two runs of a fixed reference
      computation, and its time is scaled by [nominal_ns] over their
      mean. The reference is a small interpreter written here, in the
      benchmark: it shares no code with the pipeline under test, so a
      change to the pipeline cannot move it, while a slower host slows
      it as it slows the pipeline. It dispatches over a variant array
      and walks a 2 MB table, as the pipeline does, and allocates
      nothing, so it does not move the collector's work either. *)

type ins =
  | Const of int
  | Add
  | Xor
  | Load  (** replace the top by table.(top land mask) *)
  | Store  (** pop a; table.(a land mask) <- the new top *)
  | Dup
  | Jnz of int  (** decrement the counter; jump while non-zero *)

let mask = (1 lsl 18) - 1

(* outside the OCaml heap, so it does not count into peak_heap_mb *)
let table =
  let t = Bigarray.(Array1.create int c_layout (mask + 1)) in
  for i = 0 to mask do
    t.{i} <- (i * 2654435761) land 0xffff
  done;
  t

let program = [| Const 7; Add; Dup; Load; Xor; Dup; Const 40503; Add; Store; Jnz 0 |]

(** Interpret [program] for [iters] trips; returns the top of the stack. *)
let interpret iters =
  let stack = Array.make 8 0 in
  let sp = ref 1 and pc = ref 0 and counter = ref iters in
  stack.(0) <- 1;
  while !pc < Array.length program do
    (match program.(!pc) with
     | Const n -> stack.(!sp) <- n; incr sp
     | Add -> decr sp; stack.(!sp - 1) <- stack.(!sp - 1) + stack.(!sp)
     | Xor -> decr sp; stack.(!sp - 1) <- stack.(!sp - 1) lxor stack.(!sp)
     | Load -> stack.(!sp - 1) <- table.{stack.(!sp - 1) land mask}
     | Store ->
       decr sp;
       table.{stack.(!sp) land mask} <- stack.(!sp - 1) land 0xffff
     | Dup -> stack.(!sp) <- stack.(!sp - 1); incr sp
     | Jnz target ->
       decr counter;
       if !counter > 0 then pc := target - 1);
    incr pc
  done;
  stack.(0)

let iters = 40_000

(** Scaled times read as times on a host that runs the reference in
    exactly this many nanoseconds (a 2-vCPU x86-64 VM takes 1.0 to 2.3 ms,
    depending on what its neighbours do). *)
let nominal_ns = 1_500_000.0

(** Process CPU time in nanoseconds (microsecond resolution). *)
let cpu_ns () = int_of_float (Sys.time () *. 1e9)

let reference_ns () =
  let t0 = cpu_ns () in
  ignore (Sys.opaque_identity (interpret iters));
  cpu_ns () - t0

(** [measure f] returns [f ()] and its CPU time in nanoseconds, scaled
    to the nominal host speed by the reference runs just before and just
    after it. *)
let measure f =
  let r0 = reference_ns () in
  let t0 = cpu_ns () in
  let x = f () in
  let ns = cpu_ns () - t0 in
  let r1 = reference_ns () in
  (x, int_of_float (float_of_int ns *. nominal_ns /. (float_of_int (max 1 (r0 + r1)) /. 2.0)))
