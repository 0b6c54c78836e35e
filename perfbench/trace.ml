(** Span tracing owned by the benchmark. Every span wraps one call into a
    public entry point of the pipeline; nothing inside the library is
    touched. Spans live in memory and are aggregated per layer at the end
    of the run: a layer's self time is its span's duration minus the
    durations of its child spans (and minus the analysis-callback time
    recorded by {!Counting} while the span was open).

    When tracing is off, {!span} is a plain call. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
  [@@noalloc]

(** Monotonic nanoseconds, as a native int (no allocation). *)
let now () = Int64.to_int (clock_ns ())

let enabled = ref false

type span = {
  sp_op : int;  (** operation id, shared by the spans of one operation *)
  sp_name : string;
  sp_tag : string;  (** sub-key such as a replication size; [""] for none *)
  sp_t0 : int;
  mutable sp_t1 : int;
  mutable sp_child_ns : int;
  mutable sp_words : float;  (** minor words allocated, self *)
  mutable sp_child_words : float;
  mutable sp_work : int;  (** work units the call consumed (bytes, steps, ...) *)
}

let spans : span list ref = ref []
let stack : span list ref = ref []
let op_id = ref 0

(** Start a new operation: spans opened from now on share its id. *)
let next_op () = incr op_id

let reset () =
  spans := [];
  stack := []

(** Run [f] inside a span. [work] is credited to the layer; [inner]
    returns a running (ns, words) total of time spent in analysis
    callbacks, subtracted from the span's self time like a child. *)
let span ?(tag = "") ?(work = 0) ?inner name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> Some p | [] -> None in
    let inner0 = match inner with Some g -> g () | None -> (0, 0.0) in
    let w0 = Gc.minor_words () in
    let s =
      { sp_op = !op_id; sp_name = name; sp_tag = tag; sp_t0 = now (); sp_t1 = 0;
        sp_child_ns = 0; sp_words = 0.0; sp_child_words = 0.0; sp_work = work }
    in
    stack := s :: !stack;
    let finish () =
      s.sp_t1 <- now ();
      let w = Gc.minor_words () -. w0 in
      (match inner with
       | Some g ->
         let ns1, w1 = g () in
         s.sp_child_ns <- s.sp_child_ns + (ns1 - fst inner0);
         s.sp_child_words <- s.sp_child_words +. (w1 -. snd inner0)
       | None -> ());
      s.sp_words <- w -. s.sp_child_words;
      stack := List.tl !stack;
      (match parent with
       | Some p ->
         p.sp_child_ns <- p.sp_child_ns + (s.sp_t1 - s.sp_t0);
         p.sp_child_words <- p.sp_child_words +. w
       | None -> ());
      spans := s :: !spans
    in
    match f () with
    | r -> finish (); r
    | exception e -> finish (); raise e
  end

(** Credit [n] more work units to the innermost open span (for work
    only known once the call returns, such as retired instructions). *)
let credit n = match !stack with s :: _ -> s.sp_work <- s.sp_work + n | [] -> ()

(** Per-layer totals over a set of spans. *)
type layer = {
  mutable calls : int;
  mutable self_ns : int;
  mutable words : float;
  mutable work : int;
}

let empty_layer () = { calls = 0; self_ns = 0; words = 0.0; work = 0 }

let add tbl key (s : span) =
  let l =
    match Hashtbl.find_opt tbl key with
    | Some l -> l
    | None ->
      let l = empty_layer () in
      Hashtbl.replace tbl key l;
      l
  in
  l.calls <- l.calls + 1;
  l.self_ns <- l.self_ns + (s.sp_t1 - s.sp_t0 - s.sp_child_ns);
  l.words <- l.words +. s.sp_words;
  l.work <- l.work + s.sp_work

(** Aggregate the recorded spans by layer name, and by [name@tag] for
    tagged spans. *)
let aggregate () : (string, layer) Hashtbl.t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
       add tbl s.sp_name s;
       if s.sp_tag <> "" then add tbl (s.sp_name ^ "@" ^ s.sp_tag) s)
    !spans;
  tbl

(** The recorded spans as Chrome trace-event JSON (timestamps in
    microseconds from the first span; [args.op] carries the operation
    id). *)
let to_chrome_json () =
  let all = List.rev !spans in
  let base = List.fold_left (fun a s -> min a s.sp_t0) max_int all in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
       if i > 0 then Buffer.add_char b ',';
       Printf.bprintf b
         "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"tag\":%S}}"
         s.sp_name
         (float_of_int (s.sp_t0 - base) /. 1e3)
         (float_of_int (s.sp_t1 - s.sp_t0) /. 1e3)
         s.sp_op s.sp_tag)
    all;
  Buffer.add_string b "]}\n";
  Buffer.contents b
