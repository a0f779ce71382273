(* The closed-loop load generator of the serving phase.

   Callers are circuit simulators that block on each matvec, so the loop
   is closed: a connection sends its next request only when the previous
   answer is in. The generator is this one process with two threads and
   two connections (the benchmark needs [nproc] >= 2): one connection sends
   single matvecs (default coalescing), the other sends pre-formed 16-RHS
   batches. The calling thread drives the first.

   The window is cut into one-second slices. Each slice boundary is marked
   once, at the window's start and then by the first request to finish
   past it: the time, a steal sample, and the process's open sockets and
   OS threads, so the generator's own footprint is measured, not assumed
   (as the growth over the counts before the window: standard streams may
   be sockets too).

   Every answer is compared by IEEE-754 bits with the in-process answer
   computed before the window, so the check costs the window nothing. *)

module Protocol = Serve.Protocol

type kind = Single | Batch

type stream = {
  kind : kind;
  mutable lat : (float * float) list;
      (** (completion time, latency) in seconds, newest first *)
  mutable ok : int;
  mutable failed : int;  (** error responses and transport failures *)
  mutable mismatched : int;  (** answers not bit-identical to in-process *)
  mutable first_error : string option;
}

type inputs = {
  artifact : string;
  singles : (float array * float array) array;  (** vector, expected answer *)
  batches : (float array array * float array array) array;
}

type mark = { at : float; steal : Steal.sample; sockets : int; os_threads : int }

type result = {
  singles : stream;
  batches : stream;
  marks : mark option array;
      (** [marks.(k)]: the start of slice [k]; the last entry closes the
          window. [None] when no request finished in the slice. *)
  sockets_before : int;
  os_threads_before : int;
}

let slice_s = 1.0
let now = Timing_box.now
let os_threads () = Array.length (Sys.readdir "/proc/self/task")

let sockets () =
  Array.fold_left
    (fun n fd ->
      match Unix.readlink ("/proc/self/fd/" ^ fd) with
      | target when String.starts_with ~prefix:"socket:" target -> n + 1
      | _ -> n
      | exception Unix.Unix_error _ -> n)
    0
    (Sys.readdir "/proc/self/fd")

let note_error s msg = if Option.is_none s.first_error then s.first_error <- Some msg

(* Fill every unmarked slice start up to the one [t] falls in. Only the
   thread that wins a slot's compare-and-set samples for it. *)
let mark_until marks ~start t =
  let k = min (Array.length marks - 1) (int_of_float ((t -. start) /. slice_s)) in
  for j = 0 to k do
    if Option.is_none (Atomic.get marks.(j)) then begin
      let m = { at = now (); steal = Steal.sample (); sockets = sockets (); os_threads = os_threads () } in
      ignore (Atomic.compare_and_set marks.(j) None (Some m))
    end
  done

(* One connection's closed loop until [deadline]. A transport failure
   ends the connection; an error response is counted and the loop goes
   on. *)
let drive ~socket ~timeout_s ~start ~deadline ~marks (inp : inputs) s =
  let fd = Daemon.connect ~timeout_s socket in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let i = ref 0 in
      let alive = ref true in
      while !alive && now () < deadline do
        let req, expected =
          match s.kind with
          | Single ->
            let v, y = inp.singles.(!i mod Array.length inp.singles) in
            (Protocol.Apply { artifact = inp.artifact; v; coalesce = true }, [| y |])
          | Batch ->
            let vs, ys = inp.batches.(!i mod Array.length inp.batches) in
            (Protocol.Apply_batch { artifact = inp.artifact; vs }, ys)
        in
        incr i;
        let t0 = now () in
        (match Daemon.call fd req with
        | Protocol.Vectors { vs; _ } ->
          let t1 = now () in
          s.lat <- (t1, t1 -. t0) :: s.lat;
          if Bits.same_vectors vs expected then s.ok <- s.ok + 1
          else begin
            s.mismatched <- s.mismatched + 1;
            note_error s "answer not bit-identical to in-process apply"
          end
        | Protocol.Error_r msg ->
          s.failed <- s.failed + 1;
          note_error s ("error response: " ^ msg)
        | _ ->
          s.failed <- s.failed + 1;
          note_error s "unexpected response"
        | exception (Unix.Unix_error _ | End_of_file | Protocol.Error _ as e) ->
          s.failed <- s.failed + 1;
          note_error s ("transport failure: " ^ Printexc.to_string e);
          alive := false);
        mark_until marks ~start (now ())
      done)

let run ~socket ~seconds ~timeout_s inp =
  let mk kind = { kind; lat = []; ok = 0; failed = 0; mismatched = 0; first_error = None } in
  let singles = mk Single and batches = mk Batch in
  let slices = max 2 (int_of_float (seconds /. slice_s)) in
  let marks = Array.init (slices + 1) (fun _ -> Atomic.make None) in
  let sockets_before = sockets () and os_threads_before = os_threads () in
  let start = now () in
  mark_until marks ~start start;
  let deadline = start +. (float_of_int slices *. slice_s) in
  let guarded s () =
    try drive ~socket ~timeout_s ~start ~deadline ~marks inp s
    with Unix.Unix_error (e, fn, _) ->
      s.failed <- s.failed + 1;
      note_error s (Printf.sprintf "connect: %s: %s" fn (Unix.error_message e))
  in
  let other = Thread.create (guarded batches) () in
  guarded singles ();
  Thread.join other;
  { singles; batches; marks = Array.map Atomic.get marks; sockets_before; os_threads_before }
