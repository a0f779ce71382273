(* Tests for the resilience stack (lib/substrate): structured solve-quality
   reports, typed Solve_failed, deterministic chaos injection, the
   retry/escalation wrapper, checkpointed extraction, and the CG breakdown
   flag. The load-bearing guarantee throughout: fault sites and recovered
   results are bit-identical for every jobs value. *)

open La
module Blackbox = Substrate.Blackbox
module Health = Substrate.Health
module Chaos = Substrate.Chaos
module Resilient = Substrate.Resilient
module Checkpoint = Substrate.Checkpoint
open Sparsify

let rng = Rng.create 314159

let bitwise_equal_mat a b =
  Mat.rows a = Mat.rows b
  && Mat.cols a = Mat.cols b
  &&
  let ok = ref true in
  for i = 0 to Mat.rows a - 1 do
    for j = 0 to Mat.cols a - 1 do
      if
        not
          (Int64.equal
             (Int64.bits_of_float (Mat.get a i j))
             (Int64.bits_of_float (Mat.get b i j)))
      then ok := false
    done
  done;
  !ok

(* A random diagonally-dominant dense matrix; of_dense boxes over it solve
   instantly, so the tests exercise the wrappers, not the solvers. *)
let dense_g n =
  let g = Mat.create n n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Mat.set g i j (Rng.gaussian rng)
    done;
    Mat.set g i i (Mat.get g i i +. 10.0)
  done;
  g

(* ------------------------------------------------------------------ *)
(* Chaos determinism *)

let test_chaos_deterministic () =
  (* Perturbation noise is a pure function of (seed, solve index); the
     corrupted matrix must be bit-identical across jobs values, and a
     different seed must corrupt differently. *)
  let g = dense_g 24 in
  let extract ~seed ~jobs =
    let chaos = Chaos.create ~seed ~every:3 ~fault:(Chaos.Perturb 1e-4) (Blackbox.of_dense g) in
    Blackbox.extract_dense ~jobs (Chaos.box chaos)
  in
  let a = extract ~seed:7 ~jobs:1 in
  let b = extract ~seed:7 ~jobs:4 in
  Alcotest.(check bool) "same seed, jobs 1 vs 4" true (bitwise_equal_mat a b);
  let c = extract ~seed:8 ~jobs:1 in
  Alcotest.(check bool) "different seed differs" false (bitwise_equal_mat a c);
  Alcotest.(check bool) "perturbation corrupts" false (bitwise_equal_mat a g)

let test_chaos_transient_skips_inner () =
  (* A transient fault fakes the failure without running the inner solve,
     so the retry's clean solve is the first real one at that site. *)
  let g = dense_g 20 in
  let inner = Blackbox.of_dense g in
  let chaos = Chaos.create ~every:4 ~fault:Chaos.Transient inner in
  let res = Resilient.create (Chaos.box chaos) in
  let out = Blackbox.extract_dense (Resilient.blackbox res) in
  Alcotest.(check bool) "recovered exactly" true (bitwise_equal_mat g out);
  Alcotest.(check int) "faults at 0,4,8,12,16" 5 (Chaos.injected chaos);
  Alcotest.(check int) "one retry per fault" 5 (Resilient.retries res);
  Alcotest.(check int) "inner solves = 20 (faulted attempts never reached it)" 20
    (Blackbox.solve_count inner)

(* ------------------------------------------------------------------ *)
(* Retry recovery: bit-identical to the fault-free run *)

let faulty_box g =
  let chaos = Chaos.create ~every:7 ~fault:Chaos.Transient (Blackbox.of_dense g) in
  Resilient.blackbox (Resilient.create (Chaos.box chaos))

let test_retry_recovers_wavelet () =
  let layout = Geometry.Layout.alternating ~size:128.0 ~per_side:8 () in
  let g = dense_g (Geometry.Layout.n_contacts layout) in
  let wav = Wavelet.create ~p:2 layout in
  let clean = Repr.to_dense (Wavelet.extract wav (Blackbox.of_dense g)) in
  List.iter
    (fun jobs ->
      let faulted = Repr.to_dense (Wavelet.extract ~jobs wav (faulty_box g)) in
      Alcotest.(check bool) (Printf.sprintf "jobs=%d" jobs) true (bitwise_equal_mat clean faulted))
    [ 1; 4 ]

let test_retry_recovers_lowrank () =
  let layout = Geometry.Layout.alternating ~size:128.0 ~per_side:8 () in
  let g = dense_g (Geometry.Layout.n_contacts layout) in
  let clean = Repr.to_dense (Lowrank.extract ~seed:5 layout (Blackbox.of_dense g)) in
  List.iter
    (fun jobs ->
      let faulted = Repr.to_dense (Lowrank.extract ~seed:5 ~jobs layout (faulty_box g)) in
      Alcotest.(check bool) (Printf.sprintf "jobs=%d" jobs) true (bitwise_equal_mat clean faulted))
    [ 1; 4 ]

let test_fallback_ladder () =
  (* A persistent hard fault on the primary: attempt 2 retries the primary
     (still faulted), attempt 3 escalates to the clean fallback and
     recovers. The fallback must stay unbuilt until it is needed. *)
  let g = dense_g 10 in
  let chaos = Chaos.create ~every:5 ~fault:Chaos.Nan_response (Blackbox.of_dense g) in
  let built = ref false in
  let fallback =
    lazy
      (built := true;
       Blackbox.of_dense g)
  in
  let res = Resilient.create ~fallbacks:[ ("clean", fallback) ] (Chaos.box chaos) in
  let out = Blackbox.extract_dense (Resilient.blackbox res) in
  Alcotest.(check bool) "recovered via the fallback" true (bitwise_equal_mat g out);
  Alcotest.(check bool) "fallback was built" true !built;
  Alcotest.(check int) "two retries per fault site (0 and 5)" 4 (Resilient.retries res);
  Alcotest.(check int) "no exhausted solves" 0 (List.length (Resilient.failures res))

let test_fallback_forced_under_race () =
  (* The primary always answers NaN, so every solve of a parallel batch
     reaches attempt 3 and forces the one fallback lazy; its slow
     constructor keeps it unforced while other domains arrive. The lazy
     must be built once and every answer must come from it. *)
  let n = 8 in
  let g = dense_g n in
  let primary = Blackbox.make ~n (fun _ -> Array.make n Float.nan) in
  let builds = Atomic.make 0 in
  let fallback =
    lazy
      (Atomic.incr builds;
       Unix.sleepf 0.05;
       Blackbox.of_dense g)
  in
  let res = Resilient.create ~fallbacks:[ ("clean", fallback) ] primary in
  let vs = Array.init 8 (fun _ -> Rng.gaussian_array rng n) in
  let out = Blackbox.apply_batch ~jobs:4 (Resilient.blackbox res) vs in
  let expected = Blackbox.apply_batch (Blackbox.of_dense g) vs in
  Array.iteri
    (fun i y ->
      Alcotest.(check bool)
        (Printf.sprintf "answer %d from the fallback" i)
        true
        (Array.for_all2
           (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
           y expected.(i)))
    out;
  Alcotest.(check int) "fallback built once" 1 (Atomic.get builds);
  Alcotest.(check int) "no exhausted solves" 0 (List.length (Resilient.failures res))

(* ------------------------------------------------------------------ *)
(* Typed failures *)

let test_fail_fast_names_index () =
  (* With retries disabled every fault is fatal, and the exception names
     the logical solve index. Sequentially the first fault site (offset 3)
     fails; under a pool any fault site may be recorded first, but all sit
     at offset 3 mod 7. *)
  let g = dense_g 32 in
  let run jobs =
    let chaos = Chaos.create ~offset:3 ~every:7 ~fault:Chaos.Transient (Blackbox.of_dense g) in
    let res = Resilient.create ~policy:Resilient.fail_fast (Chaos.box chaos) in
    Blackbox.extract_dense ~jobs (Resilient.blackbox res)
  in
  (match run 1 with
  | _ -> Alcotest.fail "expected Solve_failed (jobs=1)"
  | exception Blackbox.Solve_failed { index; reason } ->
    Alcotest.(check int) "first fault site" 3 index;
    Alcotest.(check bool) "reason mentions attempts" true
      (String.length reason > 0 && index mod 7 = 3));
  match run 4 with
  | _ -> Alcotest.fail "expected Solve_failed (jobs=4)"
  | exception Blackbox.Solve_failed { index; _ } ->
    (* The payload crossed the pool's domain boundary intact. *)
    Alcotest.(check int) "a fault site" 3 (index mod 7)

let test_nan_injection_names_rhs () =
  (* A NaN response without any resilient wrapper: the box's own finite
     scan raises, naming the offending right-hand side. *)
  let g = dense_g 12 in
  let chaos = Chaos.create ~offset:5 ~every:1000 ~fault:Chaos.Nan_response (Blackbox.of_dense g) in
  let vs = Array.init 12 (fun _ -> Rng.gaussian_array rng 12) in
  match Blackbox.apply_batch (Chaos.box chaos) vs with
  | _ -> Alcotest.fail "expected Solve_failed"
  | exception Blackbox.Solve_failed { index; reason } ->
    Alcotest.(check int) "rhs index" 5 index;
    Alcotest.(check bool) "reason mentions non-finite" true
      (String.length reason > 0)

let test_degrade_completes () =
  (* Persistent NaN faults with a Degrade policy: extraction completes,
     substituting zeros (no finite iterate ever appeared) and recording
     every exhausted solve. *)
  let g = dense_g 16 in
  let chaos = Chaos.create ~every:5 ~fault:Chaos.Nan_response (Blackbox.of_dense g) in
  let res = Resilient.create ~policy:Resilient.degrade (Chaos.box chaos) in
  let out = Blackbox.extract_dense (Resilient.blackbox res) in
  Alcotest.(check int) "degraded solves at 0,5,10,15" 4 (Resilient.degraded_count res);
  Alcotest.(check int) "failures recorded" 4 (List.length (Resilient.failures res));
  List.iter
    (fun (f : Resilient.failure) ->
      Alcotest.(check bool) "degraded flag" true f.degraded;
      Alcotest.(check int) "fault site" 0 (f.solve_index mod 5))
    (Resilient.failures res);
  (* Substituted columns are all-zero; untouched columns match G. *)
  for i = 0 to 15 do
    Alcotest.(check bool)
      (Printf.sprintf "col 1 row %d intact" i)
      true
      (Float.equal (Mat.get out i 1) (Mat.get g i 1));
    Alcotest.(check (float 0.0)) (Printf.sprintf "col 5 row %d zeroed" i) 0.0 (Mat.get out i 5)
  done

(* ------------------------------------------------------------------ *)
(* Checkpoint: kill and resume without repeating solves *)

let test_checkpoint_resume () =
  let layout = Geometry.Layout.alternating ~size:128.0 ~per_side:8 () in
  let g = dense_g (Geometry.Layout.n_contacts layout) in
  let wav = Wavelet.create ~p:2 layout in
  (* Reference run: the fault-free representation and its solve budget. *)
  let clean_inner = Blackbox.of_dense g in
  let clean = Repr.to_dense (Wavelet.extract wav clean_inner) in
  let total_solves = Blackbox.solve_count clean_inner in
  Alcotest.(check bool) "reference run solved something" true (total_solves > 0);
  let path = Filename.temp_file "substrate_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (* Crash run: a persistent NaN late in the solve sequence kills the
         extraction (no resilience), after earlier stages have persisted. *)
      let crash_at = (2 * total_solves) / 3 in
      let ck1 = Checkpoint.create path in
      let chaos =
        Chaos.create ~offset:crash_at ~every:100000 ~fault:Chaos.Nan_response (Blackbox.of_dense g)
      in
      (match Wavelet.extract ~checkpoint:ck1 wav (Chaos.box chaos) with
      | _ -> Alcotest.fail "expected the crash run to fail"
      | exception Blackbox.Solve_failed _ -> ());
      Checkpoint.close ck1;
      (* Resume with a clean box: completed stages replay from disk; only
         the remainder hits the solver. *)
      let ck2 = Checkpoint.create path in
      Alcotest.(check bool) "stages persisted before the crash" true
        (Checkpoint.stages_on_disk ck2 > 0);
      let resume_inner = Blackbox.of_dense g in
      let resumed = Repr.to_dense (Wavelet.extract ~checkpoint:ck2 wav resume_inner) in
      Checkpoint.close ck2;
      Alcotest.(check bool) "resume is bit-identical to uninterrupted" true
        (bitwise_equal_mat clean resumed);
      Alcotest.(check bool) "some solves were not repeated" true (Checkpoint.cached_solves ck2 > 0);
      Alcotest.(check int) "resume ran exactly the missing solves"
        (total_solves - Checkpoint.cached_solves ck2)
        (Blackbox.solve_count resume_inner))

let test_checkpoint_resume_lowrank () =
  (* The same kill-and-resume contract for the low-rank extractor, at
     jobs 1 and 4: the fault site, the persisted stages and the resumed
     result are all independent of the parallelism. *)
  let layout = Geometry.Layout.alternating ~size:128.0 ~per_side:8 () in
  let g = dense_g (Geometry.Layout.n_contacts layout) in
  let clean_inner = Blackbox.of_dense g in
  let clean = Repr.to_dense (Lowrank.extract ~seed:5 layout clean_inner) in
  let total_solves = Blackbox.solve_count clean_inner in
  Alcotest.(check bool) "reference run solved something" true (total_solves > 0);
  List.iter
    (fun jobs ->
      let path = Filename.temp_file "substrate_ckpt" ".bin" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let crash_at = (2 * total_solves) / 3 in
          let ck1 = Checkpoint.create path in
          let chaos =
            Chaos.create ~offset:crash_at ~every:100000 ~fault:Chaos.Nan_response
              (Blackbox.of_dense g)
          in
          (match Lowrank.extract ~seed:5 ~jobs ~checkpoint:ck1 layout (Chaos.box chaos) with
          | _ -> Alcotest.fail "expected the crash run to fail"
          | exception Blackbox.Solve_failed _ -> ());
          Checkpoint.close ck1;
          let ck2 = Checkpoint.create path in
          Alcotest.(check bool) "stages persisted before the crash" true
            (Checkpoint.stages_on_disk ck2 > 0);
          let resume_inner = Blackbox.of_dense g in
          let resumed =
            Repr.to_dense (Lowrank.extract ~seed:5 ~jobs ~checkpoint:ck2 layout resume_inner)
          in
          Checkpoint.close ck2;
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: resume is bit-identical to uninterrupted" jobs)
            true (bitwise_equal_mat clean resumed);
          Alcotest.(check bool) "some solves were not repeated" true
            (Checkpoint.cached_solves ck2 > 0);
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d: resume ran exactly the missing solves" jobs)
            (total_solves - Checkpoint.cached_solves ck2)
            (Blackbox.solve_count resume_inner)))
    [ 1; 4 ]

let test_checkpoint_mismatch () =
  (* A checkpoint written by a different run (different RHSs) is rejected. *)
  let path = Filename.temp_file "substrate_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let g = dense_g 8 in
      let ck1 = Checkpoint.create path in
      let b1 = Checkpoint.wrap ck1 (Blackbox.of_dense g) in
      ignore (Blackbox.apply_batch b1 (Array.init 3 (fun _ -> Rng.gaussian_array rng 8)));
      Checkpoint.close ck1;
      let ck2 = Checkpoint.create path in
      Alcotest.(check int) "one stage on disk" 1 (Checkpoint.stages_on_disk ck2);
      let b2 = Checkpoint.wrap ck2 (Blackbox.of_dense g) in
      (match Blackbox.apply_batch b2 (Array.init 3 (fun _ -> Rng.gaussian_array rng 8)) with
      | _ -> Alcotest.fail "expected Mismatch"
      | exception Checkpoint.Mismatch { stage; _ } -> Alcotest.(check int) "stage 0" 0 stage);
      Checkpoint.close ck2)

(* ------------------------------------------------------------------ *)
(* Satellites: index validation, CG breakdown flag, health aggregation *)

let test_extract_columns_validates () =
  let g = dense_g 8 in
  let bb = Blackbox.of_dense g in
  let contains_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  (match Blackbox.extract_columns bb [| 0; 99; 3 |] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the bad index" true (contains_sub msg "99"));
  Alcotest.(check int) "no solve ran" 0 (Blackbox.solve_count bb)

let test_cg_breakdown_flag () =
  (* An indefinite operator: p' A p = 0 on the very first direction. CG
     must stop immediately and say so, not loop to max_iter. *)
  let apply v = [| v.(0); -.v.(1) |] in
  let stats = Krylov.make_stats () in
  let r = Krylov.cg ~stats ~apply [| 1.0; 1.0 |] in
  Alcotest.(check bool) "breakdown flagged" true r.Krylov.breakdown;
  Alcotest.(check bool) "stopped early" true (r.Krylov.iterations <= 1);
  Alcotest.(check int) "stats count breakdowns" 1 stats.Krylov.breakdowns;
  (* A well-behaved SPD solve must not set the flag. *)
  let ok = Krylov.cg ~apply:(fun v -> [| 2.0 *. v.(0); 3.0 *. v.(1) |]) [| 1.0; 1.0 |] in
  Alcotest.(check bool) "no breakdown on SPD" false ok.Krylov.breakdown;
  Alcotest.(check bool) "converged on SPD" true ok.Krylov.converged

let test_health_aggregation () =
  let g = dense_g 8 in
  let bb = Blackbox.of_dense g in
  ignore (Blackbox.extract_dense bb);
  let s = Health.summary (Blackbox.health bb) in
  Alcotest.(check int) "solves" 8 s.Health.s_solves;
  Alcotest.(check int) "non-finite" 0 s.Health.s_non_finite;
  Alcotest.(check bool) "healthy" true (Health.healthy s);
  (* A solver publishing a non-converged report flips the health verdict
     and surfaces through last_report. *)
  let health = Health.create () in
  let bb2 =
    Blackbox.make ~health ~n:8 (fun v ->
        Blackbox.report_solve health { Health.ok with converged = false; residual = 1.0 };
        Mat.gemv g v)
  in
  ignore (Blackbox.apply bb2 (Array.make 8 1.0));
  let s2 = Health.summary (Blackbox.health bb2) in
  Alcotest.(check int) "non-converged recorded" 1 s2.Health.s_non_converged;
  Alcotest.(check bool) "unhealthy" false (Health.healthy s2);
  match Blackbox.last_report () with
  | None -> Alcotest.fail "expected a last report"
  | Some r ->
    Alcotest.(check bool) "last report non-converged" false r.Health.converged;
    Alcotest.(check bool) "finite scan completed" true r.Health.finite

let () =
  Alcotest.run "resilience"
    [
      ( "chaos",
        [
          Alcotest.test_case "deterministic across seeds and jobs" `Quick test_chaos_deterministic;
          Alcotest.test_case "transient skips the inner solve" `Quick test_chaos_transient_skips_inner;
        ] );
      ( "retry",
        [
          Alcotest.test_case "wavelet recovers bit-identically" `Quick test_retry_recovers_wavelet;
          Alcotest.test_case "lowrank recovers bit-identically" `Quick test_retry_recovers_lowrank;
          Alcotest.test_case "ladder retries primary then escalates" `Quick test_fallback_ladder;
          Alcotest.test_case "fallback forced once under a parallel race" `Quick
            test_fallback_forced_under_race;
          Alcotest.test_case "fail-fast names the solve index" `Quick test_fail_fast_names_index;
          Alcotest.test_case "nan injection names the rhs" `Quick test_nan_injection_names_rhs;
          Alcotest.test_case "degrade completes with a report" `Quick test_degrade_completes;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "kill and resume repeats no solve" `Quick test_checkpoint_resume;
          Alcotest.test_case "lowrank kill and resume, jobs 1 and 4" `Quick
            test_checkpoint_resume_lowrank;
          Alcotest.test_case "foreign checkpoint rejected" `Quick test_checkpoint_mismatch;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "extract_columns validates indices" `Quick test_extract_columns_validates;
          Alcotest.test_case "cg breakdown flag" `Quick test_cg_breakdown_flag;
          Alcotest.test_case "health aggregation" `Quick test_health_aggregation;
        ] );
    ]
