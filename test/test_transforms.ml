(* Tests for FFT, DCT and the fast Poisson solver. *)

open La
open Transforms

let rng = Rng.create 1234

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* FFT *)

let test_fft_matches_naive () =
  List.iter
    (fun n ->
      let re = Rng.gaussian_array rng n and im = Rng.gaussian_array rng n in
      let er, ei = Fft.dft_naive ~sign:(-1) re im in
      let fr = Array.copy re and fi = Array.copy im in
      Fft.forward fr fi;
      Alcotest.(check bool)
        (Printf.sprintf "fft re n=%d" n)
        true
        (Vec.approx_equal ~tol:1e-8 fr er && Vec.approx_equal ~tol:1e-8 fi ei))
    [ 1; 2; 4; 8; 16; 64 ]

let test_fft_roundtrip () =
  let n = 32 in
  let re = Rng.gaussian_array rng n and im = Rng.gaussian_array rng n in
  let fr = Array.copy re and fi = Array.copy im in
  Fft.forward fr fi;
  Fft.inverse fr fi;
  Alcotest.(check bool) "roundtrip" true
    (Vec.approx_equal ~tol:1e-10 fr re && Vec.approx_equal ~tol:1e-10 fi im)

let test_fft_rejects_non_power_of_two () =
  Alcotest.check_raises "n=3" (Invalid_argument "Fft.transform: length must be a power of two")
    (fun () -> Fft.forward (Array.make 3 0.0) (Array.make 3 0.0))

let test_fft_parseval () =
  let n = 64 in
  let re = Rng.gaussian_array rng n and im = Array.make n 0.0 in
  let energy_time = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 re in
  let fr = Array.copy re and fi = Array.copy im in
  Fft.forward fr fi;
  let energy_freq =
    Array.fold_left ( +. ) 0.0 (Array.init n (fun i -> (fr.(i) *. fr.(i)) +. (fi.(i) *. fi.(i))))
    /. float_of_int n
  in
  Alcotest.(check (float 1e-8)) "parseval" energy_time energy_freq

(* ------------------------------------------------------------------ *)
(* DCT *)

(* Explicit orthonormal DCT-II matrix for comparison. *)
let dct_matrix n =
  Mat.init n n (fun k j ->
      let s = if k = 0 then sqrt (1.0 /. float_of_int n) else sqrt (2.0 /. float_of_int n) in
      s *. cos (Float.pi *. (float_of_int j +. 0.5) *. float_of_int k /. float_of_int n))

let test_dct_matches_matrix () =
  List.iter
    (fun n ->
      let x = Rng.gaussian_array rng n in
      let expected = Mat.gemv (dct_matrix n) x in
      Alcotest.(check bool)
        (Printf.sprintf "dct n=%d" n)
        true
        (Vec.approx_equal ~tol:1e-9 (Dct.dct_ii x) expected))
    [ 1; 2; 3; 4; 5; 8; 16; 17; 32 ]

let test_dct_roundtrip () =
  List.iter
    (fun n ->
      let x = Rng.gaussian_array rng n in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip n=%d" n)
        true
        (Vec.approx_equal ~tol:1e-9 (Dct.dct_iii (Dct.dct_ii x)) x))
    [ 1; 2; 3; 7; 8; 64 ]

let test_dct_orthogonal () =
  (* Energy preservation: ||DCT x|| = ||x||. *)
  let x = Rng.gaussian_array rng 128 in
  Alcotest.(check (float 1e-9)) "norm preserved" (Vec.norm2 x) (Vec.norm2 (Dct.dct_ii x))

let test_dct_transpose_property () =
  (* <DCT x, y> = <x, DCT' y> = <x, DCT-III y>. *)
  let x = Rng.gaussian_array rng 16 and y = Rng.gaussian_array rng 16 in
  Alcotest.(check (float 1e-9)) "adjoint" (Vec.dot (Dct.dct_ii x) y) (Vec.dot x (Dct.dct_iii y))

let test_dct_2d_roundtrip () =
  let nx = 8 and ny = 4 in
  let a = Rng.gaussian_array rng (nx * ny) in
  let b = Dct.dct_iii_2d ~nx ~ny (Dct.dct_ii_2d ~nx ~ny a) in
  Alcotest.(check bool) "2d roundtrip" true (Vec.approx_equal ~tol:1e-9 a b)

let test_dct_2d_separable () =
  (* A rank-1 grid f(x) g(y) transforms to dct(f) outer dct(g). *)
  let nx = 4 and ny = 8 in
  let f = Rng.gaussian_array rng nx and g = Rng.gaussian_array rng ny in
  let a = Array.init (nx * ny) (fun i -> f.(i mod nx) *. g.(i / nx)) in
  let fa = Dct.dct_ii f and ga = Dct.dct_ii g in
  let expected = Array.init (nx * ny) (fun i -> fa.(i mod nx) *. ga.(i / nx)) in
  Alcotest.(check bool) "separable" true
    (Vec.approx_equal ~tol:1e-9 (Dct.dct_ii_2d ~nx ~ny a) expected)

let test_dct_plan_matches_naive_large () =
  (* The FFT-plan path agrees with the direct sum at solver-scale lengths. *)
  List.iter
    (fun n ->
      let x = Rng.gaussian_array rng n in
      let fast = Dct.dct_ii x in
      let slow = Mat.gemv (dct_matrix n) x in
      Alcotest.(check bool) (Printf.sprintf "plan n=%d" n) true (Vec.approx_equal ~tol:1e-8 fast slow))
    [ 128; 256 ]

let test_dct_2d_rect_roundtrip () =
  (* Rectangular power-of-two grids through the plan path. *)
  let nx = 32 and ny = 8 in
  let a = Rng.gaussian_array rng (nx * ny) in
  Alcotest.(check bool) "rect roundtrip" true
    (Vec.approx_equal ~tol:1e-9 a (Dct.dct_iii_2d ~nx ~ny (Dct.dct_ii_2d ~nx ~ny a)))

let prop_dct_linear =
  let gen =
    QCheck2.Gen.(
      let* n = oneofl [ 4; 8; 16 ] in
      let* xs = list_repeat n (float_range (-5.0) 5.0) in
      let* ys = list_repeat n (float_range (-5.0) 5.0) in
      return (Array.of_list xs, Array.of_list ys))
  in
  qtest "DCT is linear" gen (fun (x, y) ->
      let lhs = Dct.dct_ii (Vec.add x y) in
      let rhs = Vec.add (Dct.dct_ii x) (Dct.dct_ii y) in
      Vec.approx_equal ~tol:1e-9 lhs rhs)

let test_neumann_eigenpair () =
  (* The DCT mode really is an eigenvector of the 1-D Neumann Laplacian. *)
  let n = 16 and k = 5 in
  let mode = Array.init n (fun j -> cos (Float.pi *. (float_of_int j +. 0.5) *. float_of_int k /. float_of_int n)) in
  let lap v =
    Array.init n (fun i ->
        let left = if i > 0 then v.(i) -. v.(i - 1) else 0.0 in
        let right = if i < n - 1 then v.(i) -. v.(i + 1) else 0.0 in
        left +. right)
  in
  let lambda = Dct.neumann_laplacian_eigenvalue ~n ~k in
  Alcotest.(check bool) "eigenpair" true
    (Vec.approx_equal ~tol:1e-9 (lap mode) (Vec.scale lambda mode))

(* ------------------------------------------------------------------ *)
(* Poisson *)

let make_poisson ?(top_fraction = 1.0) ?(bottom_contact = false) ?(nx = 4) ?(ny = 4) ?(nz = 3) () =
  let sigma = Array.init nz (fun k -> if k = 0 then 1.0 else 10.0) in
  Poisson.create ~nx ~ny ~nz ~h:0.5 ~sigma ~top_fraction ~bottom_contact ()

let test_poisson_solver_exact () =
  (* solve really inverts apply when the operator is nonsingular. *)
  let p = make_poisson () in
  let n = Poisson.size p in
  let x = Rng.gaussian_array rng n in
  let b = Poisson.apply p x in
  let x' = Poisson.solve p b in
  Alcotest.(check bool) "exact inverse" true (Vec.approx_equal ~tol:1e-8 x x')

let test_poisson_solver_exact_backplane () =
  let p = make_poisson ~top_fraction:0.0 ~bottom_contact:true () in
  let n = Poisson.size p in
  let x = Rng.gaussian_array rng n in
  Alcotest.(check bool) "backplane inverse" true
    (Vec.approx_equal ~tol:1e-8 x (Poisson.solve p (Poisson.apply p x)))

let test_poisson_apply_symmetric () =
  (* <M x, y> = <x, M y>. *)
  let p = make_poisson ~top_fraction:0.3 () in
  let n = Poisson.size p in
  let x = Rng.gaussian_array rng n and y = Rng.gaussian_array rng n in
  Alcotest.(check (float 1e-8)) "self-adjoint" (Vec.dot (Poisson.apply p x) y)
    (Vec.dot x (Poisson.apply p y))

let test_poisson_apply_matches_dense_stamp () =
  (* Check the operator against an independently stamped dense matrix on a
     tiny grid. *)
  let p = make_poisson ~nx:2 ~ny:2 ~nz:2 ~top_fraction:1.0 () in
  let n = Poisson.size p in
  let dense = Mat.init n n (fun i j ->
      let ei = Array.make n 0.0 in
      ei.(j) <- 1.0;
      (Poisson.apply p ei).(i))
  in
  Alcotest.(check bool) "symmetric dense" true (Mat.is_symmetric dense);
  (* Diagonal dominance with strictness on the top plane (Dirichlet above). *)
  for i = 0 to n - 1 do
    let off = ref 0.0 in
    for j = 0 to n - 1 do
      if i <> j then off := !off +. Float.abs (Mat.get dense i j)
    done;
    Alcotest.(check bool) "diagonally dominant" true (Mat.get dense i i >= !off -. 1e-12)
  done

let test_poisson_singular_mode_regularized () =
  (* Pure Neumann everywhere: solve must not blow up. *)
  let p = make_poisson ~top_fraction:0.0 ~bottom_contact:false () in
  let n = Poisson.size p in
  (* Zero-mean rhs lies in the range of the singular operator. *)
  let b = Rng.gaussian_array rng n in
  let mean = Vec.sum b /. float_of_int n in
  let b = Array.map (fun x -> x -. mean) b in
  let x = Poisson.solve p b in
  let r = Vec.sub (Poisson.apply p x) b in
  Alcotest.(check bool) "residual small on range" true (Vec.norm2 r < 1e-6 *. Vec.norm2 b)

let test_series_conductance () =
  (* Equal conductivities: series of two half resistors = one full resistor. *)
  Alcotest.(check (float 1e-12)) "uniform" 0.5 (Poisson.series_conductance 0.5 1.0 1.0);
  (* Matches (2.8): g = h / (p/s1 + (1-p)/s2) at p = 1/2. *)
  let h = 2.0 and s1 = 3.0 and s2 = 5.0 in
  Alcotest.(check (float 1e-12)) "layered"
    (h /. ((0.5 /. s1) +. (0.5 /. s2)))
    (Poisson.series_conductance h s1 s2)

(* ------------------------------------------------------------------ *)
(* Bit-identity pins for the factored, in-place Poisson solve *)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let bits_digest (a : float array) =
  let b = Buffer.create (8 * Array.length a) in
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) a;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The unfactored algorithm, kept as the bit-level oracle: every call
   rebuilds each mode's z-system and runs [Tridiag.solve] on it, and
   transforms each plane with [dct_ii_2d] / [dct_iii_2d] on a copy. *)
let poisson_oracle ~nx ~ny ~nz ~h ~sigma ~top_fraction ~bottom_contact (b : float array) =
  let gz = Array.init (nz - 1) (fun k -> Poisson.series_conductance h sigma.(k) sigma.(k + 1)) in
  let g_top = top_fraction *. sigma.(0) *. h in
  let g_bottom = if bottom_contact then 2.0 *. sigma.(nz - 1) *. h else 0.0 in
  let plane = nx * ny in
  let hat = Array.make (nx * ny * nz) 0.0 in
  for iz = 0 to nz - 1 do
    let s = Dct.dct_ii_2d ~nx ~ny (Array.sub b (iz * plane) plane) in
    Array.blit s 0 hat (iz * plane) plane
  done;
  let singular = Float.equal g_top 0.0 && Float.equal g_bottom 0.0 in
  let lower = Array.make nz 0.0 and diag = Array.make nz 0.0 in
  let upper = Array.make nz 0.0 and rhs = Array.make nz 0.0 in
  for ky = 0 to ny - 1 do
    let ly = Dct.neumann_laplacian_eigenvalue ~n:ny ~k:ky in
    for kx = 0 to nx - 1 do
      let lx = Dct.neumann_laplacian_eigenvalue ~n:nx ~k:kx in
      for iz = 0 to nz - 1 do
        let d = ref (sigma.(iz) *. h *. (lx +. ly)) in
        if iz > 0 then begin
          d := !d +. gz.(iz - 1);
          lower.(iz) <- -.gz.(iz - 1)
        end
        else lower.(iz) <- 0.0;
        if iz < nz - 1 then begin
          d := !d +. gz.(iz);
          upper.(iz) <- -.gz.(iz)
        end
        else upper.(iz) <- 0.0;
        if iz = 0 then d := !d +. g_top;
        if iz = nz - 1 then d := !d +. g_bottom;
        if singular && kx = 0 && ky = 0 then d := !d +. (1e-12 *. sigma.(iz) *. h);
        diag.(iz) <- !d;
        rhs.(iz) <- hat.((iz * plane) + (ky * nx) + kx)
      done;
      let x = Tridiag.solve ~lower ~diag ~upper ~rhs in
      for iz = 0 to nz - 1 do
        hat.((iz * plane) + (ky * nx) + kx) <- x.(iz)
      done
    done
  done;
  let out = Array.make (nx * ny * nz) 0.0 in
  for iz = 0 to nz - 1 do
    let s = Dct.dct_iii_2d ~nx ~ny (Array.sub hat (iz * plane) plane) in
    Array.blit s 0 out (iz * plane) plane
  done;
  out

(* name, (nx, ny, nz), top_fraction, bottom_contact, and the digest of the
   oracle's answer recorded before the solve was factored. *)
let poisson_cases =
  [
    ("32x32x8 area-weighted", (32, 32, 8), 0.3, false, "1c48cbba3b10b830b0eb0665801ca08b");
    ("16x8x4 dirichlet", (16, 8, 4), 1.0, false, "fa6201094922ee520737edb52625c7e5");
    ("6x5x3 non-power-of-two", (6, 5, 3), 0.5, false, "100108fe48260c232208bd288016fb43");
    ("8x8x4 pure neumann", (8, 8, 4), 0.0, false, "640d83b00392d762f50ad3d33c8fb7e8");
    ("16x16x4 grounded backplane", (16, 16, 4), 0.0, true, "0385d73d1eb694db4b1e49174299b767");
  ]

let case_problem ((nx, ny, nz), top_fraction, bottom_contact) =
  let h = 4.0 in
  let sigma = Array.init nz (fun k -> if k = 0 then 1.0 else 100.0) in
  let p = Poisson.create ~nx ~ny ~nz ~h ~sigma ~top_fraction ~bottom_contact () in
  let b = Rng.gaussian_array (Rng.create (nx + (100 * ny) + (10_000 * nz))) (nx * ny * nz) in
  let oracle = poisson_oracle ~nx ~ny ~nz ~h ~sigma ~top_fraction ~bottom_contact b in
  (p, b, oracle)

let test_poisson_matches_oracle_bits () =
  List.iter
    (fun (name, dims, top, bottom, digest) ->
      let p, b, oracle = case_problem (dims, top, bottom) in
      Alcotest.(check string) (name ^ ": oracle digest") digest (bits_digest oracle);
      (* Twice: the first call builds the factors, the second reuses them. *)
      Alcotest.(check bool) (name ^ ": first solve") true (bits_equal oracle (Poisson.solve p b));
      Alcotest.(check bool) (name ^ ": second solve") true (bits_equal oracle (Poisson.solve p b)))
    poisson_cases

let test_poisson_concurrent_first_use () =
  (* Four domains race to build the factors of a fresh solver. *)
  let p, b, oracle = case_problem ((32, 32, 8), 0.3, false) in
  let ready = Atomic.make 0 in
  let solve () =
    Atomic.incr ready;
    while Atomic.get ready < 4 do
      Domain.cpu_relax ()
    done;
    Poisson.solve p b
  in
  let domains = List.init 4 (fun _ -> Domain.spawn solve) in
  List.iteri
    (fun i d ->
      Alcotest.(check bool) (Printf.sprintf "domain %d" i) true (bits_equal oracle (Domain.join d)))
    domains

let test_poisson_allocation_bound () =
  (* After the first call, a solve allocates its result (size + 1 words)
     and O(nx + ny + nz) scratch, nothing per mode or per plane. *)
  List.iter
    (fun (nx, ny, nz) ->
      let p, b, _ = case_problem ((nx, ny, nz), 0.3, false) in
      ignore (Poisson.solve p b);
      let before = Gc.allocated_bytes () in
      ignore (Sys.opaque_identity (Poisson.solve p b));
      let words = int_of_float ((Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)) in
      let bound = Poisson.size p + (4 * (nx + ny + nz)) + 64 in
      Alcotest.(check bool)
        (Printf.sprintf "%dx%dx%d: %d words <= %d" nx ny nz words bound)
        true (words <= bound))
    [ (32, 32, 8); (16, 8, 4) ]

let test_dct_planes_match_2d () =
  List.iter
    (fun (nx, ny) ->
      let planes = 3 in
      let a = Rng.gaussian_array rng (nx * ny * planes) in
      let plane k = Array.sub a (k * nx * ny) (nx * ny) in
      let check name inplace per_plane =
        let x = Array.copy a in
        inplace ~nx ~ny x;
        let expected = Array.concat (List.init planes (fun k -> per_plane ~nx ~ny (plane k))) in
        Alcotest.(check bool) (Printf.sprintf "%s %dx%d" name nx ny) true (bits_equal expected x)
      in
      check "dct_ii" Dct.dct_ii_planes Dct.dct_ii_2d;
      check "dct_iii" Dct.dct_iii_planes Dct.dct_iii_2d)
    [ (32, 32); (16, 8); (6, 5) ]

(* The probe digest [substrate_extract extract --scenario floating-backplane
   --probe-digest] printed before the solve was factored: the end-to-end
   pin of the FD path at the scenario's 32x32x8 grid. *)
let test_floating_backplane_probe_digest () =
  let scn = Option.get (Scenario.find "floating-backplane") in
  let layout = Scenario.layout scn in
  let repr = Sparsify.Lowrank.extract ~jobs:1 layout (Scenario.blackbox scn layout) in
  let n = repr.Sparsify.Repr.n in
  let probe_rng = Rng.create 1234 in
  let probes = Array.init 5 (fun _ -> Rng.gaussian_array probe_rng n) in
  let responses = Subcouple_op.apply_batch ~jobs:1 (Sparsify.Repr.op repr) probes in
  let b = Buffer.create 4096 in
  Buffer.add_int64_le b (Int64.of_int (Array.length responses));
  Array.iter
    (fun v ->
      Buffer.add_int64_le b (Int64.of_int (Array.length v));
      Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) v)
    responses;
  Alcotest.(check string) "probe digest" "6492a8495ae2d9d2539051ca968c8e81"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let () =
  Alcotest.run "transforms"
    [
      ( "fft",
        [
          Alcotest.test_case "matches naive DFT" `Quick test_fft_matches_naive;
          Alcotest.test_case "roundtrip" `Quick test_fft_roundtrip;
          Alcotest.test_case "rejects non-power-of-two" `Quick test_fft_rejects_non_power_of_two;
          Alcotest.test_case "parseval" `Quick test_fft_parseval;
        ] );
      ( "dct",
        [
          Alcotest.test_case "matches explicit matrix" `Quick test_dct_matches_matrix;
          Alcotest.test_case "roundtrip" `Quick test_dct_roundtrip;
          Alcotest.test_case "orthogonal" `Quick test_dct_orthogonal;
          Alcotest.test_case "transpose property" `Quick test_dct_transpose_property;
          Alcotest.test_case "2d roundtrip" `Quick test_dct_2d_roundtrip;
          Alcotest.test_case "2d separable" `Quick test_dct_2d_separable;
          Alcotest.test_case "neumann eigenpair" `Quick test_neumann_eigenpair;
          Alcotest.test_case "plan matches naive (large)" `Quick test_dct_plan_matches_naive_large;
          Alcotest.test_case "2d rectangular roundtrip" `Quick test_dct_2d_rect_roundtrip;
          Alcotest.test_case "in-place planes match 2d bits" `Quick test_dct_planes_match_2d;
          prop_dct_linear;
        ] );
      ( "poisson",
        [
          Alcotest.test_case "exact inverse (top dirichlet)" `Quick test_poisson_solver_exact;
          Alcotest.test_case "exact inverse (backplane)" `Quick test_poisson_solver_exact_backplane;
          Alcotest.test_case "apply symmetric" `Quick test_poisson_apply_symmetric;
          Alcotest.test_case "matches dense stamp" `Quick test_poisson_apply_matches_dense_stamp;
          Alcotest.test_case "singular mode regularized" `Quick test_poisson_singular_mode_regularized;
          Alcotest.test_case "series conductance" `Quick test_series_conductance;
          Alcotest.test_case "factored solve matches oracle bits" `Quick test_poisson_matches_oracle_bits;
          Alcotest.test_case "concurrent first use" `Quick test_poisson_concurrent_first_use;
          Alcotest.test_case "allocation bound" `Quick test_poisson_allocation_bound;
          Alcotest.test_case "floating-backplane probe digest" `Quick
            test_floating_backplane_probe_digest;
        ] );
    ]
