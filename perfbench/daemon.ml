(* The substrate_serve daemon as a child process, and the wire calls the
   benchmark makes to it.

   The daemon runs as its own process: serving from a thread of the
   benchmark process would measure the benchmark's runtime lock, not the
   daemon. Every socket the benchmark opens has send and receive
   timeouts, so a stalled daemon surfaces as a failed request rather than
   a hung run (Serve.Client has no timeout; [call] is its round trip —
   one framed request, one framed response — on such a socket). *)

module Protocol = Serve.Protocol

type t = { pid : int; socket : string; mutable status : Unix.process_status option }

(* Every daemon not yet reaped; [stop_all] runs on every exit path. *)
let live : t list ref = ref []

let spawn ~exe ~root ~socket ~jobs ~log =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let argv =
    [| exe; "serve"; "--root"; root; "--socket"; socket; "--jobs"; string_of_int jobs |]
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close null)
      (fun () -> Unix.create_process exe argv null out out)
  in
  let t = { pid; socket; status = None } in
  live := t :: !live;
  t

(* Reap without blocking; true once the process has exited. *)
let exited t =
  match t.status with
  | Some _ -> true
  | None -> (
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ -> false
    | _, st ->
      t.status <- Some st;
      true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      t.status <- Some (Unix.WEXITED 255);
      true)

let connect ~timeout_s socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s;
    Unix.connect fd (Unix.ADDR_UNIX socket)
  with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

exception Failed of string

(* Connect once the daemon accepts; fail if it exits first or does not
   come up within [timeout_s]. *)
let await_ready t ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if exited t then raise (Failed "daemon exited during start-up");
    match connect ~timeout_s t.socket with
    | fd -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.005;
      go ()
    | exception Unix.Unix_error (e, _, _) ->
      raise (Failed ("daemon not accepting: " ^ Unix.error_message e))
  in
  go ()

let call fd req =
  Protocol.write_request fd req;
  Protocol.read_response fd

let stats fd =
  match call fd Protocol.Stats with
  | Protocol.Stats_r { pairs; _ } -> pairs
  | Protocol.Error_r msg -> raise (Failed ("stats: " ^ msg))
  | _ -> raise (Failed "stats: unexpected response")

(* Peak resident set (VmHWM) of a process, in MiB; [None] once it has
   exited. *)
let peak_rss_mb pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | status ->
    List.find_map
      (fun line -> Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
      (String.split_on_char '\n' status)
  | exception Sys_error _ -> None

(* Bounded shutdown: SIGTERM (the daemon's handler drains and exits),
   then SIGKILL after [grace_s]; the socket file is removed either way. *)
let grace_s = 5.0

let stop t =
  if not (exited t) then begin
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
    let deadline = Unix.gettimeofday () +. grace_s in
    while (not (exited t)) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.01
    done;
    if not (exited t) then begin
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
      match Unix.waitpid [] t.pid with
      | _, st -> t.status <- Some st
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> t.status <- Some (Unix.WEXITED 255)
    end
  end;
  (try Unix.unlink t.socket with Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  live := List.filter (fun d -> d != t) !live

let stop_all () = List.iter stop !live
