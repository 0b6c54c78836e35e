(** A wrapper around an {!Wasabi.Analysis.t} that counts every callback
    by hook group and, when timed, accumulates the time and minor words
    spent inside the wrapped callbacks. One accumulator belongs to one
    domain; serve workers each get their own. The wrapper allocates
    nothing itself, so the words it measures are the analysis's own. *)

open Wasabi

let groups = Array.of_list Hook.all_groups
let n_groups = Array.length groups

let gi g =
  let rec find i = if groups.(i) = g then i else find (i + 1) in
  find 0

type acc = {
  timed : bool;
  counts : int array;  (** events per hook group, indexed like [groups] *)
  mutable ns : int;
  mutable t0 : int;
  words : float array;  (** [| total; at callback entry |] *)
}

let create ~timed =
  { timed; counts = Array.make n_groups 0; ns = 0; t0 = 0; words = [| 0.0; 0.0 |] }

let total acc = Array.fold_left ( + ) 0 acc.counts

(** Running (ns, words) totals, for {!Trace.span}'s [inner]. *)
let inner acc () = (acc.ns, acc.words.(0))

let add_into ~into acc =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) acc.counts;
  into.ns <- into.ns + acc.ns;
  into.words.(0) <- into.words.(0) +. acc.words.(0)

let[@inline] enter acc g =
  Array.unsafe_set acc.counts g (Array.unsafe_get acc.counts g + 1);
  if acc.timed then begin
    Array.unsafe_set acc.words 1 (Gc.minor_words ());
    acc.t0 <- Trace.now ()
  end

let[@inline] leave acc =
  if acc.timed then begin
    acc.ns <- acc.ns + (Trace.now () - acc.t0);
    Array.unsafe_set acc.words 0
      (Array.unsafe_get acc.words 0 +. (Gc.minor_words () -. Array.unsafe_get acc.words 1))
  end

let wrap acc (a : Analysis.t) : Analysis.t =
  let g_nop = gi Hook.G_nop and g_unr = gi Hook.G_unreachable
  and g_if = gi Hook.G_if and g_br = gi Hook.G_br and g_br_if = gi Hook.G_br_if
  and g_br_table = gi Hook.G_br_table and g_begin = gi Hook.G_begin
  and g_end = gi Hook.G_end and g_const = gi Hook.G_const and g_drop = gi Hook.G_drop
  and g_select = gi Hook.G_select and g_unary = gi Hook.G_unary
  and g_binary = gi Hook.G_binary and g_local = gi Hook.G_local
  and g_global = gi Hook.G_global and g_load = gi Hook.G_load
  and g_store = gi Hook.G_store and g_msize = gi Hook.G_memory_size
  and g_mgrow = gi Hook.G_memory_grow and g_call = gi Hook.G_call
  and g_return = gi Hook.G_return and g_start = gi Hook.G_start in
  {
    Analysis.nop = (fun l -> enter acc g_nop; a.nop l; leave acc);
    unreachable = (fun l -> enter acc g_unr; a.unreachable l; leave acc);
    if_ = (fun l c -> enter acc g_if; a.if_ l c; leave acc);
    br = (fun l t -> enter acc g_br; a.br l t; leave acc);
    br_if = (fun l t c -> enter acc g_br_if; a.br_if l t c; leave acc);
    br_table = (fun l ts d i -> enter acc g_br_table; a.br_table l ts d i; leave acc);
    begin_ = (fun l k -> enter acc g_begin; a.begin_ l k; leave acc);
    end_ = (fun l k b -> enter acc g_end; a.end_ l k b; leave acc);
    const = (fun l v -> enter acc g_const; a.const l v; leave acc);
    drop = (fun l v -> enter acc g_drop; a.drop l v; leave acc);
    select = (fun l c x y -> enter acc g_select; a.select l c x y; leave acc);
    unary = (fun l op x r -> enter acc g_unary; a.unary l op x r; leave acc);
    binary = (fun l op x y r -> enter acc g_binary; a.binary l op x y r; leave acc);
    local = (fun l op i v -> enter acc g_local; a.local l op i v; leave acc);
    global = (fun l op i v -> enter acc g_global; a.global l op i v; leave acc);
    load = (fun l op m v -> enter acc g_load; a.load l op m v; leave acc);
    store = (fun l op m v -> enter acc g_store; a.store l op m v; leave acc);
    memory_size = (fun l p -> enter acc g_msize; a.memory_size l p; leave acc);
    memory_grow = (fun l d p -> enter acc g_mgrow; a.memory_grow l d p; leave acc);
    call_pre = (fun l f args ti -> enter acc g_call; a.call_pre l f args ti; leave acc);
    call_post = (fun l rs -> enter acc g_call; a.call_post l rs; leave acc);
    return_ = (fun l rs -> enter acc g_return; a.return_ l rs; leave acc);
    start = (fun l -> enter acc g_start; a.start l; leave acc);
  }
