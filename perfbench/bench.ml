(* The repository benchmark: one workload per invocation.

     bench.exe --workload serve-mixed --seed 1 --seconds 36 --trace 0

   runs the user pipeline — .scn scenario, black-box extraction, .sca
   artifact, in-process apply, substrate_serve answering socket clients —
   checks its outputs, and prints one JSON line last: whether every check
   held, the operations attempted and failed, and every figure it measured
   by name. The untraced run ([--trace 0]) gives the end-to-end figures,
   the traced run ([--trace 1]) the per-layer split as well. Layers are
   timed from outside, by timing calls into their public functions; the
   traced run also switches on the lib/trace recorder in this process. A
   failed check or an operation that raised prints the line with
   "correct": false and exits 1. run.py, the command BENCHMARK.json names,
   builds this program and the daemon, takes the units and the split into
   end-to-end and per-layer metrics from BENCHMARK.json, and prints the
   result line. *)

module Blackbox = Substrate.Blackbox
module Health = Substrate.Health
module Repr = Sparsify.Repr
module Op = Subcouple_op
module Protocol = Serve.Protocol

let now = Timing_box.now
let nproc = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Arguments *)

type args = { workload : Workload.t; seed : int; seconds : float; traced : bool }

(* Paths, relative to the repository root the benchmark runs from. *)
let serve_exe = "_build/default/bin/substrate_serve.exe"
let scenario_dir = "perfbench/scenarios"
let tmp_dir = ".perfbench_tmp"
let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      Hashtbl.replace tbl key value;
      go rest
    | [] -> ()
    | x :: _ -> die "unexpected argument %S\nusage: %s" x usage
  in
  go (List.tl (Array.to_list Sys.argv));
  let get key =
    match Hashtbl.find_opt tbl key with Some v -> v | None -> die "missing %s\nusage: %s" key usage
  in
  let int_of key = match int_of_string_opt (get key) with Some v -> v | None -> die "%s: not an integer" key in
  let name = get "--workload" in
  let workload =
    match Workload.find name with
    | Some w -> w
    | None ->
      die "unknown workload %S (known: %s)" name
        (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all))
  in
  let seconds = int_of "--seconds" in
  if seconds < 1 then die "--seconds must be at least 1";
  let traced =
    match get "--trace" with "0" -> false | "1" -> true | v -> die "--trace %S: expected 0 or 1" v
  in
  { workload; seed = int_of "--seed"; seconds = float_of_int seconds; traced }

(* ------------------------------------------------------------------ *)
(* Run state: metrics, attempted/failed operations, failed checks *)

let metrics : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace metrics name v
let attempted = ref 0
let failed = ref 0
let problems : string list ref = ref []

let check ok fmt =
  Printf.ksprintf (fun msg -> if not ok then problems := msg :: !problems) fmt

let median_by f xs = Stats.median (Array.of_list (List.map f xs))

(* The share of a traced extraction's wall time that black-box time, the
   sparsification spans' self time and the save may leave unexplained. A
   larger remainder is reported on stderr: work has moved out of the
   library's spans. *)
let unattributed_tolerance = 0.15

(* ------------------------------------------------------------------ *)
(* The split of a traced extraction *)

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Merged [start, end) intervals (ns) of the spans [pick] selects. *)
let union pick events =
  let iv =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.Trace.kind = `Span && pick e then
          Some (e.Trace.t0_ns, Int64.add e.Trace.t0_ns e.Trace.dur_ns)
        else None)
      events
    |> List.sort compare
  in
  let rec merge acc = function
    | [] -> List.rev acc
    | (s, e) :: rest -> (
      match acc with
      | (s0, e0) :: acc' when Int64.compare s e0 <= 0 -> merge ((s0, max e0 e) :: acc') rest
      | _ -> merge ((s, e) :: acc) rest)
  in
  merge [] iv

let seconds ns = Int64.to_float ns *. 1e-9
let length ivs = List.fold_left (fun acc (s, e) -> acc +. seconds (Int64.sub e s)) 0.0 ivs

let rec overlap a b =
  match (a, b) with
  | [], _ | _, [] -> 0.0
  | (s1, e1) :: ra, (s2, e2) :: rb ->
    let here = seconds (Int64.sub (min e1 e2) (max s1 s2)) in
    Float.max 0.0 here +. if Int64.compare e1 e2 < 0 then overlap ra b else overlap a rb

type split = {
  cg_s : float;
  fill_gw_s : float;
  phase2_s : float;
  sampling_s : float;
  responses_s : float;
  level_combine_s : float;
  traced_self_s : float;
      (** time on the calling domain inside sparsification spans and
          outside black-box spans: sparsification self time as the
          library's own spans see it *)
  pool_chunks : int;
  pool_busy_s : float;
  pool_wait_s : float;
}

(* Totals come from the recorder's own summary; only the self time needs
   the events, to subtract black-box intervals nested in sparsification
   spans. *)
let split_of_trace () =
  let s = Trace.summary () in
  let agg rows name = List.find_opt (fun a -> String.equal a.Trace.agg_name name) rows in
  let total rows name = match agg rows name with Some a -> a.Trace.total | None -> 0.0 in
  let span = total s.Trace.spans in
  let events = Trace.events () in
  let main = (Domain.self () :> int) in
  let on_main prefixes (e : Trace.event) =
    e.Trace.domain = main && List.exists (fun p -> has_prefix p e.Trace.name) prefixes
  in
  let sparsify = union (on_main [ "lowrank."; "rowbasis."; "wavelet." ]) events in
  let box = union (on_main [ "blackbox." ]) events in
  {
    cg_s = span "krylov.cg";
    fill_gw_s = span "lowrank.fill_gw";
    phase2_s = span "lowrank.phase2_sweep";
    sampling_s = span "rowbasis.level2_samples" +. span "rowbasis.level_sampling";
    responses_s =
      span "rowbasis.level2_responses" +. span "rowbasis.level_responses"
      +. span "rowbasis.split_responses";
    level_combine_s = span "wavelet.level_combine";
    traced_self_s = length sparsify -. overlap sparsify box;
    pool_chunks = (match agg s.Trace.spans "pool.chunk" with Some a -> a.Trace.count | None -> 0);
    pool_busy_s = span "pool.chunk";
    pool_wait_s = total s.Trace.dists "pool.queue_wait_s";
  }

(* ------------------------------------------------------------------ *)
(* One extraction: set-up, extract, save *)

type extraction = {
  layout : int;  (** which of the run's seeded layouts *)
  resolve_s : float;
  create_s : float;
  wall_s : float;  (** black box ready to .sca on disk, wall clock *)
  extract_s : float;
      (** the same interval without the speed sampler's kernel, rescaled to
          the reference speed and steal-adjusted *)
  speed : float;  (** the host's speed during the extraction, 1.0 = reference *)
  busy_s : float;  (** inside the black box *)
  box_calls : int;
  save_s : float;
  health : Health.summary;
  minor_words : float;
  major_collections : int;
  split : split option;  (** traced extractions only *)
}

let setup_s x = x.resolve_s +. x.create_s

let resolve args j =
  Workload.resolve args.workload ~scenario_dir ~seed:(Workload.layout_seed ~seed:args.seed j)

(* Returns the timings plus the representation and the inner black box,
   which only the layout's checks need. *)
let extract_once args ~layout ~path ~traced =
  let w = args.workload in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let scn, lay = resolve args layout in
  let t1 = now () in
  let inner = Workload.blackbox w (scn, lay) in
  let box, timing = Timing_box.wrap inner in
  let t2 = now () in
  let s2 = Steal.sample () in
  if traced then begin
    Trace.reset ();
    Trace.set_enabled true
  end;
  let (repr, speed), t3 =
    Fun.protect
      ~finally:(fun () -> if traced then Trace.set_enabled false)
      (fun () ->
        let r =
          Speed.sampled (fun () ->
              match w.Workload.method_ with
              | Workload.Lowrank -> Sparsify.Lowrank.extract ~jobs:nproc lay box
              | Workload.Wavelet ->
                Sparsify.Wavelet.extract ~jobs:nproc (Sparsify.Wavelet.create ~p:2 lay) box)
        in
        let t3 = now () in
        Repr.save ~kind:"bench" ~source:("perfbench " ^ w.Workload.name) (fst r) ~path;
        (r, t3))
  in
  let t4 = now () in
  let s4 = Steal.sample () in
  let g1 = Gc.quick_stat () in
  let x =
    {
      layout;
      resolve_s = t1 -. t0;
      create_s = t2 -. t1;
      wall_s = t4 -. t2;
      extract_s = Steal.adjust ~wall:(Speed.at_reference speed ~wall:(t4 -. t2)) s2 s4;
      speed = speed.Speed.speed;
      busy_s = timing.Timing_box.busy_s;
      box_calls = timing.Timing_box.calls;
      save_s = t4 -. t3;
      health = Health.summary (Blackbox.health inner);
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      split = (if traced then Some (split_of_trace ()) else None);
    }
  in
  Printf.eprintf
    "%s: layout %d%s: set-up %.4f s, extract %.3f s (wall %.3f s, speed %.3f, black box %.3f s, save %.4f s)\n%!"
    w.Workload.name layout (if traced then " traced" else "") (setup_s x) x.extract_s x.wall_s
    x.speed x.busy_s x.save_s;
  (x, repr, inner)

(* Count a batch of solves; any non-converged, broken-down or non-finite
   solve fails the run. *)
let account_solves ~what ~(before : Health.summary) ~(after : Health.summary) =
  let bad s = s.Health.s_non_converged + s.Health.s_breakdowns + s.Health.s_non_finite in
  let n_bad = bad after - bad before in
  attempted := !attempted + after.Health.s_solves - before.Health.s_solves;
  failed := !failed + n_bad;
  check (n_bad = 0) "%d failed %s solves (health: %s)" n_bad what
    (Format.asprintf "%a" Health.pp_summary after)

(* ------------------------------------------------------------------ *)
(* Seeded inputs *)

let probe_rng args salt = La.Rng.create ((args.seed * 1_000_003) + salt)
let gaussians rng ~n k = Array.init k (fun _ -> La.Rng.gaussian_array rng n)

(* [k] distinct column indices out of [n], seeded (partial Fisher-Yates). *)
let sample_columns rng ~n k =
  let idx = Array.init n Fun.id in
  let k = min k n in
  for i = 0 to k - 1 do
    let j = i + La.Rng.int rng (n - i) in
    let t = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- t
  done;
  let s = Array.sub idx 0 k in
  Array.sort compare s;
  s

(* ------------------------------------------------------------------ *)
(* The run directory and the daemon *)

let run_dir = ref None

let remove_tree dir =
  let rec rm path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Unix.unlink path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  rm dir

let cleanup () =
  Daemon.stop_all ();
  Option.iter remove_tree !run_dir;
  run_dir := None

let artifact_name j = Printf.sprintf "g%d.sca" j
let request_timeout_s = 20.0

(* The daemon's peak resident set, sampled while it is known to be alive
   (after its warm answer) and again after the window, so a crash in the
   window still leaves a figure. *)
let daemon_rss = ref 0.0
let sample_daemon_rss (d : Daemon.t) =
  Option.iter (fun mb -> daemon_rss := Float.max !daemon_rss mb) (Daemon.peak_rss_mb d.Daemon.pid)

(* Spawn the daemon over [dir] and wait for its answer to a first real
   matvec on [artifact]: the artifact is then resident. *)
let start_daemon ~dir ~artifact ~probe ~expected =
  let socket = Filename.concat dir "serve.sock" in
  let d =
    Daemon.spawn ~exe:serve_exe ~root:dir ~socket ~jobs:nproc
      ~log:(Filename.concat dir "daemon.log")
  in
  let fd = Daemon.await_ready d ~timeout_s:request_timeout_s in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      attempted := !attempted + 1;
      match Daemon.call fd (Protocol.Apply { artifact; v = probe; coalesce = true }) with
      | Protocol.Vectors { vs = [| y |]; _ } ->
        if not (Bits.same_vector y expected) then begin
          incr failed;
          check false "warm-up answer differs from in-process apply"
        end
      | Protocol.Error_r msg -> raise (Daemon.Failed ("warm-up: " ^ msg))
      | _ -> raise (Daemon.Failed "warm-up: unexpected response"));
  d

(* ------------------------------------------------------------------ *)
(* A layout's artifact: checks and the in-process operator *)

type layout_result = {
  repr : Repr.t;
  op : Op.t;  (** the artifact as the daemon loads it *)
  col_rel_err : float;
  iterations : int;  (** Krylov iterations of the layout's extraction *)
  box_calls : int;
}

let time_median ~reps f =
  Stats.median
    (Array.init reps (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (f ()));
         now () -. t0))

(* The artifact on disk must answer bit-identically to the representation
   that was saved, and stay within the accuracy anchor against exact
   columns of the black box (extra solves, outside every timing). *)
let check_layout args (x : extraction) ~repr ~inner ~path =
  let w = args.workload in
  let j = x.layout in
  let n = repr.Repr.n in
  let probes = gaussians (probe_rng args (100 + j)) ~n 5 in
  let loaded = Repr.load ~path in
  let op = Op.of_payload (Op.Artifact.load ~path) in
  let d_mem = Bits.digest (Op.apply_batch (Repr.op repr) probes) in
  check
    (String.equal d_mem (Bits.digest (Op.apply_batch (Repr.op loaded) probes)))
    "layout %d: loaded .sca probe digest differs from the in-memory representation's" j;
  check
    (String.equal d_mem (Bits.digest (Op.apply_batch op probes)))
    "layout %d: the artifact as served (of_payload) differs from the in-memory representation" j;
  let cols = sample_columns (probe_rng args (200 + j)) ~n 32 in
  let before = Health.summary (Blackbox.health inner) in
  let exact = Blackbox.extract_columns ~jobs:nproc inner cols in
  account_solves ~what:"reference" ~before ~after:(Health.summary (Blackbox.health inner));
  let approx = Op.columns op cols in
  let err =
    (Sparsify.Metrics.error_sampled ~exact_columns:exact ~approx_columns:approx)
      .Sparsify.Metrics.max_rel_error
  in
  check (err <= w.Workload.col_err_bound) "layout %d: col_rel_err %.4g exceeds the bound %.4g" j
    err w.Workload.col_err_bound;
  {
    repr;
    op;
    col_rel_err = err;
    iterations = x.health.Health.s_total_iterations;
    box_calls = x.box_calls;
  }

(* Per-layer timings of the in-process operator, the artifact and the wire
   codec. *)
let measure_op_layers (l : layout_result) ~artifact ~path =
  let op = l.op in
  let n = Op.n op in
  let rng = La.Rng.create 4242 in
  let v = La.Rng.gaussian_array rng n in
  let vs = gaussians rng ~n 16 in
  set "op.apply_us" (1e6 *. time_median ~reps:201 (fun () -> Op.apply op v));
  let b1 = time_median ~reps:51 (fun () -> Op.apply_batch ~jobs:1 op vs) in
  let bn = time_median ~reps:51 (fun () -> Op.apply_batch ~jobs:nproc op vs) in
  set "op.batch16_us" (1e6 *. bn);
  set "parallel.batch16_speedup" (b1 /. bn);
  (* Bytes one matvec streams, computed from the stored factors: Q' and Q
     each sweep Q, G_w is swept once; a nonzero is an 8-byte value plus an
     8-byte column index, a row an 8-byte pointer; plus the six vectors
     read or written along the way. *)
  let csr m = (16 * Sparsemat.Csr.nnz m) + (8 * (Sparsemat.Csr.rows m + 1)) in
  set "op.bytes_per_matvec"
    (float_of_int ((2 * csr l.repr.Repr.q) + csr l.repr.Repr.gw + (6 * 8 * n)));
  let req = Protocol.Apply_batch { artifact; vs } in
  set "protocol.frame_bytes" (float_of_int (8 + String.length (Protocol.encode_request req)));
  set "protocol.encode_us" (1e6 *. time_median ~reps:101 (fun () -> Protocol.encode_request req));
  let resp = Protocol.encode_response (Protocol.Vectors { vs; degraded = None }) in
  set "protocol.decode_us" (1e6 *. time_median ~reps:101 (fun () -> Protocol.decode_response resp));
  set "artifact.load_s" (time_median ~reps:5 (fun () -> Repr.load ~path));
  set "artifact.bytes" (float_of_int (Unix.stat path).Unix.st_size)

(* ------------------------------------------------------------------ *)
(* The serving window *)

(* Steal on a shared host comes in bursts: a second with half its CPU
   time stolen and the next with none, and in storms most seconds lose
   half. The window is cut into one-second slices, each with its stolen
   share.

   The mean latencies and the work rate use every slice, on a
   steal-adjusted clock: the closed loop is CPU-bound, and the work it
   gets done follows the CPU time the host gives it. Each request's
   latency is scaled by its slice's unstolen share raised to the request
   kind's steal exponent, and [serve_matvecs_per_s] counts each kind's
   matvecs per second of time adjusted the same way. A single matvec runs
   on one vCPU at a time, so steal stretches it in proportion: exponent 1.
   A 16-RHS batch is split over the daemon's pool, and the split part
   waits for whichever vCPU was stolen, so steal stretches it more:
   exponent 1.25, the slope of log latency on -log(unstolen share) across
   the slices of a run (1.23 to 1.57 in single runs of both workloads).
   With exponent 1, the batch means of five extract-fd runs at 18-60%
   steal spread 0.24 (quartile distance over median); with 1.25, 0.09.

   Percentiles are left as measured: a stolen burst stalls a few requests
   for milliseconds and leaves the rest alone, which no clock adjustment
   describes. They pool the requests of the least-stolen slices: every
   slice whose stolen share is at most that of the cleanest quarter, or at
   most 2% (a few clock ticks), so on a quiet host every slice counts. *)
let steal_exponent = function Loadgen.Single -> 1.0 | Loadgen.Batch -> 1.25

type slice = { stolen : float; length : float; singles : float array; batches : float array }

let slices_of (r : Loadgen.result) =
  let in_slice (a : Loadgen.mark) (b : Loadgen.mark) (s : Loadgen.stream) =
    List.filter_map (fun (t, l) -> if t >= a.at && t < b.at then Some l else None) s.lat
    |> Array.of_list
  in
  List.filter_map
    (fun k ->
      match (r.Loadgen.marks.(k), r.Loadgen.marks.(k + 1)) with
      | Some a, Some b ->
        Some
          {
            stolen = Steal.share a.steal b.steal;
            length = b.at -. a.at;
            singles = in_slice a b r.Loadgen.singles;
            batches = in_slice a b r.Loadgen.batches;
          }
      | _ -> None)
    (* Slice 0 is warm-up: the batch connection is still starting. *)
    (List.init (Array.length r.Loadgen.marks - 2) (fun k -> k + 1))

let clean_slices slices =
  match List.sort Float.compare (List.map (fun sl -> sl.stolen) slices) with
  | [] -> []
  | shares ->
    let cut = Float.max 0.02 (List.nth shares ((List.length shares - 1) / 4)) in
    List.filter (fun sl -> sl.stolen <= cut) slices

let serve_window args ~dir ~artifact ~(op : Op.t) ~daemon ~seconds =
  let n = Op.n op in
  let rng = probe_rng args 3 in
  let singles = Array.map (fun v -> (v, Op.apply op v)) (gaussians rng ~n 32) in
  let batches =
    Array.init 4 (fun _ ->
        let vs = gaussians rng ~n 16 in
        (vs, Op.apply_batch ~jobs:nproc op vs))
  in
  let socket = Filename.concat dir "serve.sock" in
  let r =
    Loadgen.run ~socket ~seconds ~timeout_s:request_timeout_s
      { Loadgen.artifact; singles; batches }
  in
  sample_daemon_rss daemon;
  let crashed = Daemon.exited daemon in
  check (not crashed) "the daemon exited during the serving window";
  List.iter
    (fun (s : Loadgen.stream) ->
      attempted := !attempted + s.ok + s.failed + s.mismatched;
      failed := !failed + s.failed + s.mismatched;
      Option.iter
        (fun msg ->
          check false "%s stream: %s" (match s.kind with Loadgen.Single -> "single" | Batch -> "batch") msg)
        s.first_error)
    [ r.Loadgen.singles; r.Loadgen.batches ];
  (* The generator's footprint as the slice marks saw it. *)
  let marks = List.filter_map Fun.id (Array.to_list r.Loadgen.marks) in
  let peak f = List.fold_left (fun acc m -> max acc (f m)) 0 marks in
  let sockets = peak (fun m -> m.Loadgen.sockets) - r.Loadgen.sockets_before in
  let extra_threads = peak (fun m -> m.Loadgen.os_threads) - r.Loadgen.os_threads_before in
  set "loadgen.peak_sockets" (float_of_int sockets);
  set "loadgen.extra_os_threads" (float_of_int extra_threads);
  check (sockets <= nproc) "the load generator held %d sockets open on %d cores" sockets nproc;
  check (extra_threads <= nproc)
    "the serving window added %d OS threads to the generator process (allowed: %d generator \
     threads besides the caller, plus the runtime's tick thread)"
    extra_threads (nproc - 1);
  let slices = slices_of r in
  let clean = clean_slices slices in
  let mean_ms a = 1e3 *. Array.fold_left ( +. ) 0.0 a /. float_of_int (max 1 (Array.length a)) in
  Printf.eprintf
    "%s: serving slices (stolen share/singles/batches/single mean ms/batch mean ms):%s; %d clean\n%!"
    args.workload.Workload.name
    (String.concat ""
       (List.map
          (fun sl ->
            Printf.sprintf " %.2f/%d/%d/%.3f/%.3f" sl.stolen (Array.length sl.singles)
              (Array.length sl.batches) (mean_ms sl.singles) (mean_ms sl.batches))
          slices))
    (List.length clean);
  let sum f = List.fold_left (fun acc sl -> acc +. f sl) 0.0 slices in
  let requests kind sl = match kind with Loadgen.Single -> sl.singles | Batch -> sl.batches in
  let count kind = sum (fun sl -> float_of_int (Array.length (requests kind sl))) in
  let unstolen kind sl = (1.0 -. sl.stolen) ** steal_exponent kind in
  let adjusted_mean_ms kind =
    1e3 *. sum (fun sl -> unstolen kind sl *. Array.fold_left ( +. ) 0.0 (requests kind sl)) /. count kind
  in
  let rate kind = count kind /. sum (fun sl -> sl.length *. unstolen kind sl) in
  let pool f = Array.concat (List.map f clean) in
  let sl = pool (fun c -> c.singles) and bl = pool (fun c -> c.batches) in
  let figure name v =
    match v with
    | Some v when Float.is_finite v -> set name v
    | _ -> check false "%s: the serving window holds too few samples" name
  in
  let ms = Option.map (fun v -> 1e3 *. v) in
  let p50 a = if Array.length a = 0 then None else Some (Stats.percentile ~pct:50 a) in
  let tail = Stats.tail sl in
  figure "serve_matvecs_per_s" (Some (rate Single +. (16.0 *. rate Batch)));
  figure "single_mean_ms" (Some (adjusted_mean_ms Single));
  figure "batch_mean_ms" (Some (adjusted_mean_ms Batch));
  figure "single_p50_ms" (ms (p50 sl));
  figure "single_p99_ms" (ms (Option.map (fun t -> t.Stats.value) tail));
  figure "batch_p50_ms" (ms (p50 bl));
  (* The percentile the tail figure reports: 99 unless the clean slices
     held fewer than 1000 singles. *)
  figure "serve.single_tail_pct" (Option.map (fun t -> 100.0 *. t.Stats.q) tail);
  set "serve.clean_slices" (float_of_int (List.length clean));
  set "serve.single_samples" (float_of_int (Array.length sl));
  set "serve.batch_samples" (float_of_int (Array.length bl));
  (* The daemon's own view, from its stats rows. It keeps means, not
     percentiles, so the wire share compares means on both sides. *)
  match
    let fd = Daemon.connect ~timeout_s:5.0 socket in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Daemon.stats fd)
  with
  | exception (Unix.Unix_error _ | End_of_file | Protocol.Error _ | Daemon.Failed _ as e) ->
    check false "daemon stats unavailable: %s" (Printexc.to_string e)
  | pairs ->
    let get k = Option.value ~default:0.0 (List.assoc_opt k pairs) in
    let sl = r.Loadgen.singles.lat in
    let server_ms = 1e3 *. get "latency_s.apply.mean" in
    let client_ms =
      1e3 *. List.fold_left (fun acc (_, l) -> acc +. l) 0.0 sl /. float_of_int (max 1 (List.length sl))
    in
    set "serve.server_mean_ms" server_ms;
    set "serve.wire_ms" (client_ms -. server_ms);
    set "serve.batch_size_mean" (get "batch.size.mean");
    set "serve.coalesced" (get "batch.coalesced");
    set "serve.direct" (get "batch.direct");
    set "cache.hits" (get "cache.hits");
    set "cache.misses" (get "cache.misses");
    set "cache.evictions" (get "cache.evictions")

(* ------------------------------------------------------------------ *)
(* Metrics of the extractions *)

let fastest xs =
  List.fold_left (fun best x -> if x.extract_s < best.extract_s then x else best) (List.hd xs) xs

(* The extraction time of a set of extractions: each layout's median
   repetition, then the mean over the layouts. The speed sampler has taken
   the host's speed out of every repetition, so what noise is left is as
   likely to shorten one as to lengthen it. *)
let extraction_time xs =
  let layouts = List.sort_uniq compare (List.map (fun x -> x.layout) xs) in
  List.fold_left
    (fun acc j -> acc +. median_by (fun x -> x.extract_s) (List.filter (fun x -> x.layout = j) xs))
    0.0 layouts
  /. float_of_int (List.length layouts)

(* [xs]: every extraction of the run; [layouts]: each layout's checks. *)
let record_extraction_metrics (xs : extraction list) (layouts : layout_result list) =
  let untraced = List.filter (fun x -> Option.is_none x.split) xs in
  let traced = List.filter (fun x -> Option.is_some x.split) xs in
  set "extract_s" (extraction_time untraced);
  set "extract_wall_s" (extraction_time (List.map (fun x -> { x with extract_s = x.wall_s }) untraced));
  (* What a layout decides — work, storage, accuracy — is a median over the
     run's layouts, each counted once, so it repeats exactly at a fixed
     seed. *)
  let per_layout f = median_by (fun l -> float_of_int (f l)) layouts in
  let solves l = l.repr.Repr.solves in
  set "solves" (per_layout solves);
  set "storage_floats" (per_layout (fun l -> Repr.storage_floats l.repr));
  set "sparsify.gw_nnz" (per_layout (fun l -> Sparsemat.Csr.nnz l.repr.Repr.gw));
  set "sparsify.q_nnz" (per_layout (fun l -> Sparsemat.Csr.nnz l.repr.Repr.q));
  set "substrate.batches" (per_layout (fun l -> l.box_calls));
  set "krylov.iterations" (per_layout (fun l -> l.iterations));
  set "krylov.iterations_per_solve"
    (median_by (fun l -> float_of_int l.iterations /. float_of_int (solves l)) layouts);
  set "col_rel_err" (median_by (fun l -> l.col_rel_err) layouts);
  set "scenario.resolve_s" (median_by (fun x -> x.resolve_s) xs);
  set "substrate.solver_create_s" (median_by (fun x -> x.create_s) xs);
  (* The split comes from one extraction — in a traced run the fastest
     traced one — so its parts add up to its wall time. *)
  let x = fastest (if traced = [] then untraced else traced) in
  let h = x.health in
  set "substrate.busy_s" x.busy_s;
  set "substrate.solve_ms" (1e3 *. h.Health.s_solve_wall_s /. float_of_int (max 1 h.Health.s_solves));
  set "substrate.parallelism" (h.Health.s_solve_wall_s /. x.busy_s);
  set "sparsify.self_s" (x.wall_s -. x.busy_s -. x.save_s);
  set "artifact.save_s" x.save_s;
  set "gc.minor_mwords" (x.minor_words /. 1e6);
  set "gc.major_collections" (float_of_int x.major_collections);
  match x.split with
  | Some s ->
    set "krylov.cg_s" s.cg_s;
    set "lowrank.fill_gw_s" s.fill_gw_s;
    set "lowrank.phase2_sweep_s" s.phase2_s;
    set "rowbasis.sampling_s" s.sampling_s;
    set "rowbasis.responses_s" s.responses_s;
    set "wavelet.level_combine_s" s.level_combine_s;
    set "sparsify.traced_self_s" s.traced_self_s;
    set "pool.chunks" (float_of_int s.pool_chunks);
    set "pool.busy_s" s.pool_busy_s;
    set "pool.queue_wait_s" s.pool_wait_s;
    let unattributed = x.wall_s -. x.busy_s -. x.save_s -. s.traced_self_s in
    set "unattributed_s" unattributed;
    set "unattributed_frac" (unattributed /. x.wall_s);
    set "trace.overhead_frac" (extraction_time traced /. extraction_time untraced -. 1.0)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* A run *)

(* The extraction workload gives this share of the window to repeated
   extractions, in whole cycles over the layouts, and the rest to serving
   layout 0's artifact. With the speed sampler, two cycles (about 17 s)
   make the extraction figures as steady as the serving ones. *)
let extract_share = 0.4

let run args =
  let w = args.workload in
  let steal0 = Steal.sample () in
  (try Unix.mkdir tmp_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir =
    Filename.concat tmp_dir
      (Printf.sprintf "%s-%d-%d" w.Workload.name args.seed (Unix.getpid ()))
  in
  remove_tree dir;
  Unix.mkdir dir 0o700;
  run_dir := Some dir;
  let k = Workload.layouts in
  (* Traced runs extract each layout twice in a row, untraced then traced,
     so the split and the tracing overhead come from the same run and
     layouts. *)
  let layout_of i = if args.traced then i / 2 mod k else i mod k in
  let layouts = Hashtbl.create k in
  let extraction i =
    let j = layout_of i in
    let path = Filename.concat dir (artifact_name j) in
    let x, repr, inner = extract_once args ~layout:j ~path ~traced:(args.traced && i mod 2 = 1) in
    account_solves ~what:"extraction" ~before:(Health.summary (Health.create ())) ~after:x.health;
    if not (Hashtbl.mem layouts j) then Hashtbl.replace layouts j (check_layout args x ~repr ~inner ~path);
    x
  in
  let expected_warm j =
    let op = (Hashtbl.find layouts j).op in
    let probe = La.Rng.gaussian_array (probe_rng args 4) (Op.n op) in
    (probe, Op.apply op probe)
  in
  let xs, daemon, served, serve_seconds =
    match w.Workload.phase with
    | Workload.Extract ->
      (* Set-up takes about a millisecond here, so its median needs more
         samples than the extractions give. *)
      Gc.full_major ();
      let extra =
        List.init 21 (fun _ ->
            let t0 = now () in
            ignore (Workload.blackbox w (resolve args 0));
            now () -. t0)
      in
      let budget = extract_share *. args.seconds in
      let cycle = if args.traced then 2 * k else k in
      let t0 = now () in
      let rec loop i acc =
        if i > 0 && i mod cycle = 0 && now () -. t0 >= budget then List.rev acc
        else loop (i + 1) (extraction i :: acc)
      in
      let xs = loop 0 [] in
      set "setup_s" (Stats.median (Array.of_list (extra @ List.map setup_s xs)));
      Option.iter (set "peak_rss_mb") (Daemon.peak_rss_mb (Unix.getpid ()));
      let probe, expected = expected_warm 0 in
      let d = start_daemon ~dir ~artifact:(artifact_name 0) ~probe ~expected in
      (xs, d, 0, args.seconds -. budget)
    | Workload.Serve ->
      (* Set-up is the whole path to a warm daemon: extract, save, spawn,
         first answer, on the steal-adjusted clock. It runs twice per
         layout, for the extraction figures and a median; every daemon but
         the last is stopped outside the timings. *)
      let rec loop i acc prev =
        if i >= 2 * k then (List.rev acc, Option.get prev)
        else begin
          Option.iter (fun (d, _) -> Daemon.stop d) prev;
          let x = extraction i in
          let probe, expected = expected_warm x.layout in
          let t0 = now () and s0 = Steal.sample () in
          let d = start_daemon ~dir ~artifact:(artifact_name x.layout) ~probe ~expected in
          let spawn_s = Steal.adjust ~wall:(now () -. t0) s0 (Steal.sample ()) in
          loop (i + 1) ((x, setup_s x +. x.extract_s +. spawn_s) :: acc) (Some (d, x.layout))
        end
      in
      let pairs, (d, j) = loop 0 [] None in
      sample_daemon_rss d;
      set "setup_s" (median_by snd pairs);
      (List.map fst pairs, d, j, args.seconds)
  in
  record_extraction_metrics xs (Hashtbl.fold (fun _ l acc -> l :: acc) layouts []);
  set "gc.top_heap_mb" (float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1048576.0);
  let l = Hashtbl.find layouts served in
  let artifact = artifact_name served in
  if args.traced then measure_op_layers l ~artifact ~path:(Filename.concat dir artifact);
  serve_window args ~dir ~artifact ~op:l.op ~daemon ~seconds:serve_seconds;
  if w.Workload.phase = Workload.Serve then set "peak_rss_mb" !daemon_rss;
  Daemon.stop daemon;
  set "host.steal_share" (Steal.share steal0 (Steal.sample ()));
  match Hashtbl.find_opt metrics "unattributed_frac" with
  | Some f when Float.abs f > unattributed_tolerance ->
    Printf.eprintf
      "%s: note: the traced spans leave %.1f%% of the extraction unattributed (stated tolerance %.0f%%)\n"
      w.Workload.name (100.0 *. f) (100.0 *. unattributed_tolerance)
  | _ -> ()

(* The last line of output: every finite figure measured, by name, with
   all its digits. *)
let result_line ~correct =
  let values =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) metrics []
    |> List.sort compare
    |> List.map (fun (k, v) -> Printf.sprintf "%S: %.17g" k v)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"values\": {%s}}" correct
    !attempted !failed (String.concat ", " values)

let () =
  let args = parse_args () in
  if nproc < 2 then
    die "%s: needs at least 2 cores (one per load-generator connection); this host has %d"
      args.workload.Workload.name nproc;
  at_exit cleanup;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let name = args.workload.Workload.name in
  (* An operation that raises fails the run, and is counted as one
     attempted and failed operation, but the line is still printed. *)
  let raised msg =
    incr attempted;
    incr failed;
    check false "%s: %s" name msg
  in
  (match run args with
  | () -> ()
  | exception Workload.Rejected msg -> die "workload %s" msg
  | exception Daemon.Failed msg -> raised msg
  | exception Blackbox.Solve_failed { index; reason } ->
    raised (Printf.sprintf "solve %d failed: %s" index reason)
  | exception (Unix.Unix_error _ | Sys_error _ | End_of_file | Protocol.Error _ as e) ->
    raised (Printexc.to_string e));
  set "error_rate" (float_of_int !failed /. float_of_int (max 1 !attempted));
  Hashtbl.filter_map_inplace
    (fun k v ->
      if Float.is_finite v then Some v
      else begin
        check false "%s measured as %g" k v;
        None
      end)
    metrics;
  let correct = !problems = [] && !failed = 0 in
  List.iter (fun p -> prerr_endline ("bench: check failed: " ^ p)) (List.rev !problems);
  print_endline (result_line ~correct);
  exit (if correct then 0 else 1)
