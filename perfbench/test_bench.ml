(* Self-tests of the benchmark's helpers: the tail-percentile rule, the
   bit-pattern comparison, the /proc/stat steal accounting, the host-speed
   sampler, and the rejection of workload parameters the library cannot
   take. *)

let fails = ref 0

let expect name ok =
  if not ok then begin
    incr fails;
    Printf.printf "FAIL %s\n" name
  end

let samples n = Array.init n (fun i -> float_of_int (i + 1))

let test_tail () =
  (* 1000 samples: p99 has exactly 10 samples beyond it. *)
  (match Stats.tail (samples 1000) with
  | Some t ->
    expect "p99 of 1000 is rank 990" (Float.equal t.Stats.value 990.0);
    expect "p99 of 1000 has 10 beyond" (t.Stats.beyond = 10 && t.Stats.samples = 1000);
    expect "p99 of 1000 reported as 0.99" (Float.abs (t.Stats.q -. 0.99) < 1e-12)
  | None -> expect "p99 of 1000 exists" false);
  (* 200 samples: p99 would leave 2 beyond; fall back to rank 190. *)
  (match Stats.tail (samples 200) with
  | Some t ->
    expect "200 samples fall back to rank 190" (Float.equal t.Stats.value 190.0 && t.Stats.beyond = 10);
    expect "fallback percentile is 0.95" (Float.abs (t.Stats.q -. 0.95) < 1e-12)
  | None -> expect "tail of 200 exists" false);
  (* Order does not matter. *)
  let shuffled = Array.init 1000 (fun i -> float_of_int (((i * 7919) mod 1000) + 1)) in
  expect "tail ignores input order"
    (match Stats.tail shuffled with Some t -> Float.equal t.Stats.value 990.0 | None -> false);
  (* Too few samples for even the median to have 10 beyond. *)
  expect "15 samples have no tail" (Option.is_none (Stats.tail (samples 15)));
  expect "no samples, no tail" (Option.is_none (Stats.tail [||]));
  expect "percentile 50 of 1..10 is 5" (Float.equal (Stats.percentile ~pct:50 (samples 10)) 5.0);
  expect "median of 1..4 is 2.5" (Float.equal (Stats.median (samples 4)) 2.5)

let test_bits () =
  let nan1 = Int64.float_of_bits 0x7FF8000000000001L and nan2 = Int64.float_of_bits 0x7FF8000000000002L in
  expect "NaN equals itself by bits" (Bits.same_float nan1 nan1);
  expect "NaN payloads differ" (not (Bits.same_float nan1 nan2));
  expect "-0.0 differs from 0.0" (not (Bits.same_float (-0.0) 0.0));
  expect "equal floats agree" (Bits.same_float 1.5 1.5);
  expect "vectors with -0.0 differ" (not (Bits.same_vector [| 1.0; -0.0 |] [| 1.0; 0.0 |]));
  expect "vectors of different length differ" (not (Bits.same_vector [| 1.0 |] [| 1.0; 2.0 |]));
  expect "vector batches with NaN agree" (Bits.same_vectors [| [| nan1; 2.0 |] |] [| [| nan1; 2.0 |] |]);
  expect "digest sees -0.0" (not (String.equal (Bits.digest [| [| 0.0 |] |]) (Bits.digest [| [| -0.0 |] |])));
  expect "digest sees the split" (not (String.equal (Bits.digest [| [| 1.0; 2.0 |] |]) (Bits.digest [| [| 1.0 |]; [| 2.0 |] |])))

let test_steal () =
  let line = "cpu  100 5 20 900 7 1 2 30 0 0" in
  (match Steal.parse line with
  | Some st -> expect "busy counts user+nice+system+irq+softirq+steal" (st.Steal.busy = 158 && st.Steal.steal = 30)
  | None -> expect "parses a /proc/stat cpu line" false);
  expect "rejects a per-cpu line" (Option.is_none (Steal.parse "cpu0 1 2 3 4 5 6 7 8"));
  expect "rejects a short line" (Option.is_none (Steal.parse "cpu 1 2 3"));
  let a = { Steal.busy = 1000; steal = 100 } and b = { Steal.busy = 1400; steal = 200 } in
  expect "share is stolen over busy" (Float.equal (Steal.share a b) 0.25);
  expect "adjusted wall keeps the unstolen share" (Float.equal (Steal.adjust ~wall:2.0 a b) 1.5);
  expect "no busy time, no adjustment" (Float.equal (Steal.adjust ~wall:2.0 a a) 2.0)

let test_speed () =
  let r = Speed.reference_s in
  let none = Speed.of_durations [] in
  expect "no sample means the reference speed" (none.Speed.samples = 0 && Float.equal none.Speed.speed 1.0);
  let t = Speed.of_durations [ r; r /. 2.0 ] in
  expect "speed is the mean of reference over duration" (Float.abs (t.Speed.speed -. 1.5) < 1e-12);
  expect "kernel time is summed" (Float.abs (t.Speed.kernel_s -. (1.5 *. r)) < 1e-15);
  expect "the kernel's time is taken out, the rest rescaled"
    (Float.abs
       (Speed.at_reference { Speed.samples = 1; kernel_s = 0.1; speed = 2.0 } ~wall:1.1
       -. (2.0 ** Speed.sensitivity))
    < 1e-12);
  (* Half a second of work is sampled a few times (fewer if the process
     is descheduled: pending timer signals coalesce), its result passed
     through, and the previous SIGALRM disposition restored. *)
  let spin () =
    let t0 = Speed.now () in
    let k = ref 0 in
    while Speed.now () -. t0 < 0.5 do incr k done;
    !k
  in
  let k, t = Speed.sampled spin in
  expect "the work's result is passed through" (k > 0);
  expect (Printf.sprintf "half a second gives 1 to 5 samples (got %d)" t.Speed.samples)
    (t.Speed.samples >= 1 && t.Speed.samples <= 5);
  expect "the kernel's time is measured" (t.Speed.kernel_s > 0.0 && t.Speed.speed > 0.0);
  expect "the previous SIGALRM handler is restored" (Sys.signal Sys.sigalrm Sys.Signal_default = Sys.Signal_default)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_rejection () =
  let rejected w =
    match Workload.blackbox w (Workload.resolve w ~scenario_dir:"scenarios" ~seed:1) with
    | _ -> None
    | exception Workload.Rejected msg -> Some msg
  in
  (match rejected { Workload.serve_mixed with Workload.per_side = 40 } with
  | Some msg -> expect ("names the workload: " ^ msg) (contains msg "serve-mixed" && contains msg "per-side 40")
  | None -> expect "large at per-side 40 with 64 panels is rejected" false);
  (match rejected { Workload.extract_fd with Workload.per_side = 64 } with
  | Some msg -> expect ("names the workload: " ^ msg) (contains msg "extract-fd")
  | None -> expect "extract-fd at per-side 64 on a 32x32 grid is rejected" false);
  (match rejected { Workload.extract_fd with Workload.scenario = `File "missing.scn" } with
  | Some msg -> expect ("names the workload: " ^ msg) (contains msg "extract-fd")
  | None -> expect "a missing scenario file is rejected" false);
  List.iter
    (fun w -> expect ("shipped workload accepted: " ^ w.Workload.name) (Option.is_none (rejected w)))
    Workload.all

let () =
  test_tail ();
  test_bits ();
  test_steal ();
  test_speed ();
  test_rejection ();
  if !fails > 0 then exit 1;
  print_endline "perfbench self-tests: ok"
