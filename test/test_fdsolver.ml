(* Tests for the finite-difference substrate solver and the IC(0)
   preconditioner. *)

open La
module Profile = Substrate.Profile
module Blackbox = Substrate.Blackbox
open Fdsolver

let rng = Rng.create 4242

(* Small uniform substrate: 16 x 16 surface, depth 4, sigma 2, grounded. *)
let uniform_profile ?(backplane = Profile.Grounded) () =
  Profile.make ~a:16.0 ~b:16.0 ~layers:[ { Profile.thickness = 4.0; conductivity = 2.0 } ] ~backplane

let layered_profile () =
  Profile.make ~a:16.0 ~b:16.0
    ~layers:
      [
        { Profile.thickness = 1.0; conductivity = 1.0 };
        { Profile.thickness = 2.0; conductivity = 50.0 };
        { Profile.thickness = 1.0; conductivity = 0.2 };
      ]
    ~backplane:Profile.Grounded

let small_layout () = Geometry.Layout.regular_grid ~size:16.0 ~per_side:2 ~fill:0.5 ()

(* ------------------------------------------------------------------ *)
(* IC(0) *)

let laplacian_1d n =
  let coo = Sparsemat.Coo.create n n in
  for i = 0 to n - 1 do
    Sparsemat.Coo.add coo i i (if i = 0 || i = n - 1 then 2.0 else 2.0);
    if i > 0 then Sparsemat.Coo.add coo i (i - 1) (-1.0);
    if i < n - 1 then Sparsemat.Coo.add coo i (i + 1) (-1.0)
  done;
  Sparsemat.Csr.of_coo coo

let test_ic0_exact_for_tridiagonal () =
  (* A tridiagonal SPD matrix has no fill-in, so IC(0) is the exact Cholesky
     factor and the preconditioner is the exact inverse. *)
  let a = laplacian_1d 12 in
  let f = Sparsemat.Ic0.factor a in
  let x = Rng.gaussian_array rng 12 in
  let b = Sparsemat.Csr.gemv a x in
  Alcotest.(check bool) "exact inverse" true (Vec.approx_equal ~tol:1e-9 x (Sparsemat.Ic0.apply f b))

let test_ic0_reduces_iterations () =
  (* On a 2-D Laplacian IC(0) is inexact but must cut the iteration count. *)
  let n = 15 in
  let coo = Sparsemat.Coo.create (n * n) (n * n) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let k = (i * n) + j in
      Sparsemat.Coo.add coo k k 4.1;
      if i > 0 then Sparsemat.Coo.add coo k (k - n) (-1.0);
      if i < n - 1 then Sparsemat.Coo.add coo k (k + n) (-1.0);
      if j > 0 then Sparsemat.Coo.add coo k (k - 1) (-1.0);
      if j < n - 1 then Sparsemat.Coo.add coo k (k + 1) (-1.0)
    done
  done;
  let a = Sparsemat.Csr.of_coo coo in
  let f = Sparsemat.Ic0.factor a in
  let b = Rng.gaussian_array rng (n * n) in
  let plain = Krylov.cg ~apply:(Sparsemat.Csr.gemv a) ~tol:1e-8 b in
  let pre = Krylov.cg ~apply:(Sparsemat.Csr.gemv a) ~precond:(Sparsemat.Ic0.apply f) ~tol:1e-8 b in
  Alcotest.(check bool) "both converge" true (plain.Krylov.converged && pre.Krylov.converged);
  Alcotest.(check bool)
    (Printf.sprintf "fewer iterations (%d < %d)" pre.Krylov.iterations plain.Krylov.iterations)
    true
    (pre.Krylov.iterations < plain.Krylov.iterations);
  Alcotest.(check bool) "same solution" true (Vec.approx_equal ~tol:1e-5 plain.Krylov.x pre.Krylov.x)

let test_ic0_breakdown () =
  let coo = Sparsemat.Coo.create 2 2 in
  Sparsemat.Coo.add coo 0 0 1.0;
  Sparsemat.Coo.add coo 0 1 2.0;
  Sparsemat.Coo.add coo 1 0 2.0;
  Sparsemat.Coo.add coo 1 1 1.0;
  Alcotest.check_raises "indefinite" (Sparsemat.Ic0.Breakdown 1) (fun () ->
      ignore (Sparsemat.Ic0.factor (Sparsemat.Csr.of_coo coo)))

(* ------------------------------------------------------------------ *)
(* Sparse Cholesky + nested dissection *)

let random_spd_sparse rng n density =
  (* Diagonally dominant symmetric matrix with random sparsity. *)
  let coo = Sparsemat.Coo.create n n in
  let row_sums = Array.make n 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      if Rng.float rng < density then begin
        let v = Rng.gaussian rng in
        Sparsemat.Coo.add coo i j v;
        Sparsemat.Coo.add coo j i v;
        row_sums.(i) <- row_sums.(i) +. Float.abs v;
        row_sums.(j) <- row_sums.(j) +. Float.abs v
      end
    done
  done;
  for i = 0 to n - 1 do
    Sparsemat.Coo.add coo i i (row_sums.(i) +. 1.0)
  done;
  Sparsemat.Csr.of_coo coo

let test_sparse_chol_matches_dense () =
  let a = random_spd_sparse rng 30 0.15 in
  let f = Sparsemat.Sparse_chol.factor a in
  let x_true = Rng.gaussian_array rng 30 in
  let b = Sparsemat.Csr.gemv a x_true in
  Alcotest.(check bool) "solution" true
    (Vec.approx_equal ~tol:1e-8 (Sparsemat.Sparse_chol.solve f b) x_true)

let test_sparse_chol_with_permutation () =
  let a = random_spd_sparse rng 25 0.2 in
  (* Reverse ordering is a valid permutation; result must be unchanged. *)
  let perm = Array.init 25 (fun i -> 24 - i) in
  let f = Sparsemat.Sparse_chol.factor ~perm a in
  let x_true = Rng.gaussian_array rng 25 in
  let b = Sparsemat.Csr.gemv a x_true in
  Alcotest.(check bool) "permuted solution" true
    (Vec.approx_equal ~tol:1e-8 (Sparsemat.Sparse_chol.solve f b) x_true)

let test_sparse_chol_rejects_indefinite () =
  let coo = Sparsemat.Coo.create 2 2 in
  Sparsemat.Coo.add coo 0 0 1.0;
  Sparsemat.Coo.add coo 0 1 2.0;
  Sparsemat.Coo.add coo 1 0 2.0;
  Sparsemat.Coo.add coo 1 1 1.0;
  Alcotest.(check bool) "raises" true
    (try
       ignore (Sparsemat.Sparse_chol.factor (Sparsemat.Csr.of_coo coo));
       false
     with Sparsemat.Sparse_chol.Not_positive_definite _ -> true)

let test_nested_dissection_is_permutation () =
  let p = Ordering.nested_dissection ~nx:8 ~ny:4 ~nz:2 in
  let seen = Array.make 64 false in
  Array.iter
    (fun i ->
      Alcotest.(check bool) "in range" true (i >= 0 && i < 64);
      Alcotest.(check bool) "no duplicates" false seen.(i);
      seen.(i) <- true)
    p;
  Alcotest.(check int) "complete" 64 (Array.length p)

let test_nested_dissection_reduces_fill () =
  (* On the grid system, nested dissection must beat the natural order. *)
  let grid = Grid.create (uniform_profile ()) (small_layout ()) ~nx:16 ~nz:4 in
  let a = Grid.to_csr ~reduce:(fun i -> grid.Grid.is_contact_node.(i)) grid in
  let natural = Sparsemat.Sparse_chol.factor a in
  let nd =
    Sparsemat.Sparse_chol.factor ~perm:(Ordering.nested_dissection ~nx:16 ~ny:16 ~nz:4) a
  in
  Alcotest.(check bool)
    (Printf.sprintf "nd %d < natural %d" (Sparsemat.Sparse_chol.nnz_l nd)
       (Sparsemat.Sparse_chol.nnz_l natural))
    true
    (Sparsemat.Sparse_chol.nnz_l nd < Sparsemat.Sparse_chol.nnz_l natural)

let test_direct_solver_matches_pcg () =
  let layout = small_layout () in
  let profile = layered_profile () in
  let d = Direct_solver.create profile layout ~nx:16 ~nz:4 in
  let s = Fd_solver.create ~precond:(Fd_solver.Fast_poisson 0.25) profile layout ~nx:16 ~nz:4 in
  let u = [| 1.0; -0.5; 0.25; 2.0 |] in
  let a = Direct_solver.solve d u and b = Fd_solver.solve s u in
  Alcotest.(check bool) "same currents" true (Vec.norm2 (Vec.sub a b) < 1e-6 *. Vec.norm2 b)

let test_direct_solver_outside_placement () =
  let layout = small_layout () in
  let d = Direct_solver.create ~placement:Grid.Outside (uniform_profile ()) layout ~nx:16 ~nz:4 in
  let s =
    Fd_solver.create ~placement:Grid.Outside ~precond:(Fd_solver.Fast_poisson 0.25) (uniform_profile ())
      layout ~nx:16 ~nz:4
  in
  let u = [| 1.0; 0.0; 0.0; -1.0 |] in
  let a = Direct_solver.solve d u and b = Fd_solver.solve s u in
  Alcotest.(check bool) "same currents" true (Vec.norm2 (Vec.sub a b) < 1e-6 *. Vec.norm2 b)

(* ------------------------------------------------------------------ *)
(* Grid *)

let test_grid_operator_symmetric_spd () =
  let g = Grid.create (layered_profile ()) (small_layout ()) ~nx:8 ~nz:2 in
  let n = Grid.node_count g in
  let x = Rng.gaussian_array rng n and y = Rng.gaussian_array rng n in
  Alcotest.(check (float 1e-8)) "self-adjoint" (Vec.dot (Grid.apply g x) y) (Vec.dot x (Grid.apply g y));
  Alcotest.(check bool) "positive (grounded backplane)" true (Vec.dot x (Grid.apply g x) > 0.0)

let test_grid_csr_matches_apply () =
  let g = Grid.create (uniform_profile ()) (small_layout ()) ~nx:8 ~nz:2 in
  let a = Grid.to_csr g in
  let x = Rng.gaussian_array rng (Grid.node_count g) in
  Alcotest.(check bool) "csr = operator" true
    (Vec.approx_equal ~tol:1e-9 (Sparsemat.Csr.gemv a x) (Grid.apply g x))

let test_grid_row_sums () =
  (* Without a backplane or contact attachments, the operator kills
     constants (current conservation). *)
  let profile = uniform_profile ~backplane:Profile.Floating () in
  let g = Grid.create ~placement:Grid.Inside profile (small_layout ()) ~nx:8 ~nz:2 in
  let ones = Array.make (Grid.node_count g) 1.0 in
  Alcotest.(check (float 1e-9)) "A 1 = 0" 0.0 (Vec.norm_inf (Grid.apply g ones))

let test_grid_vertical_conductance_series () =
  (* A layer boundary halfway between planes gives the series formula (2.8). *)
  let profile =
    Profile.make ~a:16.0 ~b:16.0
      ~layers:[ { Profile.thickness = 2.0; conductivity = 3.0 }; { Profile.thickness = 2.0; conductivity = 7.0 } ]
      ~backplane:Profile.Grounded
  in
  let g = Grid.create profile (small_layout ()) ~nx:4 ~nz:1 in
  ignore g;
  (* With nx = 4, h = 4: a single plane, no gz. Use nx = 8, h = 2, nz = 2:
     interface at depth 2 = exactly between planes at depths 1 and 3. *)
  let g = Grid.create profile (small_layout ()) ~nx:8 ~nz:2 in
  Alcotest.(check (float 1e-9)) "series conductance"
    (Transforms.Poisson.series_conductance 2.0 3.0 7.0)
    g.Grid.gz.(0)

let test_grid_rejects_mismatched_depth () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Grid.create (uniform_profile ()) (small_layout ()) ~nx:8 ~nz:3);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Solver *)

let make_solver ?placement ?(precond = Fd_solver.Fast_poisson 1.0) ?(profile = uniform_profile ()) () =
  Fd_solver.create ?placement ~precond profile (small_layout ()) ~nx:8 ~nz:2

let test_fd_g_symmetric () =
  let s = make_solver () in
  let g = Blackbox.extract_dense (Fd_solver.blackbox s) in
  Alcotest.(check bool) "symmetric" true (Mat.is_symmetric ~tol:1e-6 g);
  for i = 0 to 3 do
    Alcotest.(check bool) "diag positive" true (Mat.get g i i > 0.0);
    for j = 0 to 3 do
      if i <> j then Alcotest.(check bool) "offdiag negative" true (Mat.get g i j < 0.0)
    done
  done

let test_fd_matches_dense_direct () =
  (* Compare the PCG path against a dense direct solve of the same reduced
     system. *)
  let s = make_solver () in
  let grid = Fd_solver.grid s in
  let n = Grid.node_count grid in
  let reduce i = grid.Grid.is_contact_node.(i) in
  let a = Sparsemat.Csr.to_dense (Grid.to_csr ~reduce grid) in
  let u = [| 1.0; -0.5; 0.25; 2.0 |] in
  let v_fix = Array.make n 0.0 in
  Array.iteri (fun c nodes -> Array.iter (fun k -> v_fix.(k) <- u.(c)) nodes) grid.Grid.contact_nodes;
  let b = Array.map (fun x -> -.x) (Grid.apply grid v_fix) in
  Array.iteri (fun i _ -> if reduce i then b.(i) <- 0.0) b;
  let x = Cholesky.solve a b in
  let v = Vec.add v_fix x in
  let expected =
    Array.map
      (fun nodes ->
        Array.fold_left
          (fun acc k ->
            let nx = grid.Grid.nx and ny = grid.Grid.ny in
            let ix = k mod nx and iy = k / nx mod ny and iz = k / (nx * ny) in
            let acc' = ref 0.0 in
            let extra =
              Grid.fold_neighbors grid ~ix ~iy ~iz (fun ~neighbor ~g ->
                  acc' := !acc' +. (g *. (v.(k) -. v.(neighbor))))
            in
            acc +. !acc' +. (extra *. v.(k)))
          0.0 nodes)
      grid.Grid.contact_nodes
  in
  let got = Fd_solver.solve s u in
  Alcotest.(check bool) "matches direct" true (Vec.approx_equal ~tol:1e-5 got expected)

let g_entry placement ~nx ~nz i j =
  let s =
    Fd_solver.create ~placement ~precond:(Fd_solver.Fast_poisson 1.0) (uniform_profile ())
      (small_layout ()) ~nx ~nz
  in
  Mat.get (Blackbox.extract_dense (Fd_solver.blackbox s)) i j

let test_fd_placements_converge () =
  (* The two Dirichlet placements are different discretizations of the same
     problem: the thesis reports "substantial differences in the results" at
     coarse spacing (§2.2.1), but the gap must shrink under refinement. *)
  let gap nx nz = Float.abs (g_entry Grid.Inside ~nx ~nz 0 0 -. g_entry Grid.Outside ~nx ~nz 0 0) in
  let coarse = gap 8 2 and mid = gap 16 4 and fine = gap 32 8 in
  Alcotest.(check bool)
    (Printf.sprintf "gap shrinks: %.2f > %.2f > %.2f" coarse mid fine)
    true
    (coarse > mid && mid > fine)

let test_fd_matches_eigenfunction_solver () =
  (* The two FD placements bracket the eigenfunction solver's value on a
     uniform substrate (Inside overestimates, Outside underestimates the
     contact coupling); the surface solver must land inside the bracket. *)
  let profile = uniform_profile () in
  let layout = small_layout () in
  let eig = Eigsolver.Eig_solver.create profile layout ~panels_per_side:32 in
  let g_eig = Mat.get (Blackbox.extract_dense (Eigsolver.Eig_solver.blackbox eig)) 0 0 in
  let g_in = g_entry Grid.Inside ~nx:32 ~nz:8 0 0 in
  let g_out = g_entry Grid.Outside ~nx:32 ~nz:8 0 0 in
  let lo = Float.min g_in g_out and hi = Float.max g_in g_out in
  Alcotest.(check bool)
    (Printf.sprintf "eig %.2f within FD bracket [%.2f, %.2f]" g_eig lo hi)
    true
    (g_eig > 0.9 *. lo && g_eig < 1.1 *. hi)

let count_avg_iterations precond =
  let s = Fd_solver.create ~precond (layered_profile ()) (small_layout ()) ~nx:16 ~nz:4 in
  let bb = Fd_solver.blackbox s in
  for c = 0 to 3 do
    let u = Array.make 4 0.0 in
    u.(c) <- 1.0;
    ignore (Blackbox.apply bb u)
  done;
  Krylov.average_iterations (Fd_solver.stats s)

let test_fd_preconditioners_reduce_iterations () =
  let none = count_avg_iterations Fd_solver.No_preconditioner in
  let ic0 = count_avg_iterations Fd_solver.Ic0 in
  let fast = count_avg_iterations (Fd_solver.Fast_poisson 1.0) in
  Alcotest.(check bool)
    (Printf.sprintf "ic0 (%.1f) < none (%.1f)" ic0 none)
    true (ic0 < none);
  Alcotest.(check bool)
    (Printf.sprintf "fast-poisson (%.1f) < ic0 (%.1f)" fast ic0)
    true (fast < ic0)

let test_fd_area_weighted_beats_dirichlet () =
  (* Table 2.1's shape: pure-Dirichlet is the worst of the fast-solver
     preconditioners; Neumann and area-weighted both beat it. *)
  let dirichlet = count_avg_iterations (Fd_solver.Fast_poisson 1.0) in
  let neumann = count_avg_iterations (Fd_solver.Fast_poisson 0.0) in
  let layout = small_layout () in
  let weighted = count_avg_iterations (Fd_solver.Fast_poisson (Fd_solver.area_fraction layout)) in
  Alcotest.(check bool)
    (Printf.sprintf "area-weighted (%.1f) < dirichlet (%.1f)" weighted dirichlet)
    true (weighted < dirichlet);
  Alcotest.(check bool)
    (Printf.sprintf "neumann (%.1f) < dirichlet (%.1f)" neumann dirichlet)
    true (neumann < dirichlet)

let test_fd_floating_row_sums () =
  (* No backplane contact: current is conserved among the top contacts
     (thesis §2.4). *)
  let s =
    Fd_solver.create ~precond:(Fd_solver.Fast_poisson 0.0)
      (uniform_profile ~backplane:Profile.Floating ())
      (small_layout ()) ~nx:8 ~nz:2
  in
  let g = Blackbox.extract_dense (Fd_solver.blackbox s) in
  let sums = Mat.gemv g (Array.make 4 1.0) in
  Alcotest.(check bool)
    (Printf.sprintf "row sums %.2e" (Vec.norm_inf sums))
    true
    (Vec.norm_inf sums < 1e-5 *. Mat.max_abs g)

let test_fd_outside_current_consistency () =
  (* Outside placement: the same current flows through the contact resistors
     as leaves through the backplane plus other contacts (KCL check). *)
  let s = make_solver ~placement:Grid.Outside () in
  let currents = Fd_solver.solve s [| 1.0; 0.0; 0.0; 0.0 |] in
  Alcotest.(check bool) "driving contact sources current" true (currents.(0) > 0.0);
  for c = 1 to 3 do
    Alcotest.(check bool) "grounded contacts sink current" true (currents.(c) < 0.0)
  done

let test_multigrid_vcycle_reduces_residual () =
  (* One V-cycle must substantially contract the residual of the reduced
     system. *)
  let profile = layered_profile () in
  let layout = small_layout () in
  let mg = Multigrid.create profile layout ~nx:16 ~nz:4 in
  Alcotest.(check bool) "several levels" true (Multigrid.n_levels mg >= 2);
  let grid = Grid.create profile layout ~nx:16 ~nz:4 in
  let n = Grid.node_count grid in
  let fixed i = grid.Grid.is_contact_node.(i) in
  let reduced v =
    let v' = Array.copy v in
    Array.iteri (fun i _ -> if fixed i then v'.(i) <- 0.0) v';
    let y = Grid.apply grid v' in
    Array.iteri (fun i _ -> if fixed i then y.(i) <- 0.0) y;
    y
  in
  let b = Rng.gaussian_array rng n in
  Array.iteri (fun i _ -> if fixed i then b.(i) <- 0.0) b;
  let x = Multigrid.v_cycle mg b in
  let r = Vec.sub b (reduced x) in
  let ratio = Vec.norm2 r /. Vec.norm2 b in
  Alcotest.(check bool) (Printf.sprintf "contraction %.3f" ratio) true (ratio < 0.5)

let test_multigrid_preconditioner_helps () =
  let layout = small_layout () in
  let avg precond =
    let s = Fd_solver.create ~precond (layered_profile ()) layout ~nx:16 ~nz:4 in
    let bb = Fd_solver.blackbox s in
    for c = 0 to 3 do
      let u = Array.make 4 0.0 in
      u.(c) <- 1.0;
      ignore (Blackbox.apply bb u)
    done;
    La.Krylov.average_iterations (Fd_solver.stats s)
  in
  let none = avg Fd_solver.No_preconditioner in
  let mg = avg Fd_solver.Multigrid in
  Alcotest.(check bool) (Printf.sprintf "mg %.1f << none %.1f" mg none) true (mg < 0.3 *. none)

let test_multigrid_matches_other_preconditioners () =
  (* The preconditioner must not change the answer, only the iteration
     count. *)
  let layout = small_layout () in
  let u = [| 1.0; -0.5; 0.25; 2.0 |] in
  let solve precond =
    Fd_solver.solve (Fd_solver.create ~precond (layered_profile ()) layout ~nx:16 ~nz:4) u
  in
  let a = solve (Fd_solver.Fast_poisson 0.25) and b = solve Fd_solver.Multigrid in
  Alcotest.(check bool) "same currents" true
    (Vec.norm2 (Vec.sub a b) < 1e-6 *. Vec.norm2 a)

let test_fd_stats_under_resilient_batch () =
  (* A Resilient batch runs the sequential FD box on several domains at
     once; every solve must land in the shared iteration stats. *)
  let s = Fd_solver.create ~precond:(Fd_solver.Fast_poisson 0.25) (layered_profile ()) (small_layout ())
      ~nx:16 ~nz:4
  in
  let res = Substrate.Resilient.create (Fd_solver.blackbox s) in
  let vs = Array.init 16 (fun _ -> Rng.gaussian_array rng 4) in
  ignore (Blackbox.apply_batch ~jobs:4 (Substrate.Resilient.blackbox res) vs);
  Alcotest.(check int) "solves" 16 (Fd_solver.stats s).La.Krylov.solves

let test_fd_area_fraction () =
  (* 2x2 contacts at fill 0.5 cover 1/4 of each cell. *)
  Alcotest.(check (float 1e-9)) "fraction" 0.25 (Fd_solver.area_fraction (small_layout ()))

let () =
  Alcotest.run "fdsolver"
    [
      ( "ic0",
        [
          Alcotest.test_case "exact for tridiagonal" `Quick test_ic0_exact_for_tridiagonal;
          Alcotest.test_case "reduces iterations" `Quick test_ic0_reduces_iterations;
          Alcotest.test_case "breakdown on indefinite" `Quick test_ic0_breakdown;
        ] );
      ( "direct",
        [
          Alcotest.test_case "sparse cholesky matches dense" `Quick test_sparse_chol_matches_dense;
          Alcotest.test_case "sparse cholesky permuted" `Quick test_sparse_chol_with_permutation;
          Alcotest.test_case "sparse cholesky rejects indefinite" `Quick
            test_sparse_chol_rejects_indefinite;
          Alcotest.test_case "nested dissection permutation" `Quick test_nested_dissection_is_permutation;
          Alcotest.test_case "nested dissection reduces fill" `Quick test_nested_dissection_reduces_fill;
          Alcotest.test_case "direct matches PCG" `Quick test_direct_solver_matches_pcg;
          Alcotest.test_case "direct outside placement" `Quick test_direct_solver_outside_placement;
        ] );
      ( "grid",
        [
          Alcotest.test_case "symmetric SPD" `Quick test_grid_operator_symmetric_spd;
          Alcotest.test_case "csr matches operator" `Quick test_grid_csr_matches_apply;
          Alcotest.test_case "row sums (floating)" `Quick test_grid_row_sums;
          Alcotest.test_case "series vertical conductance" `Quick test_grid_vertical_conductance_series;
          Alcotest.test_case "rejects mismatched depth" `Quick test_grid_rejects_mismatched_depth;
        ] );
      ( "solver",
        [
          Alcotest.test_case "G symmetric, signs" `Quick test_fd_g_symmetric;
          Alcotest.test_case "matches dense direct solve" `Quick test_fd_matches_dense_direct;
          Alcotest.test_case "placements converge" `Slow test_fd_placements_converge;
          Alcotest.test_case "matches eigenfunction solver" `Slow test_fd_matches_eigenfunction_solver;
          Alcotest.test_case "preconditioners reduce iterations" `Quick
            test_fd_preconditioners_reduce_iterations;
          Alcotest.test_case "area-weighted competitive" `Quick test_fd_area_weighted_beats_dirichlet;
          Alcotest.test_case "floating conserves current" `Quick test_fd_floating_row_sums;
          Alcotest.test_case "multigrid V-cycle contracts" `Quick test_multigrid_vcycle_reduces_residual;
          Alcotest.test_case "multigrid preconditioner helps" `Quick test_multigrid_preconditioner_helps;
          Alcotest.test_case "multigrid same answer" `Quick test_multigrid_matches_other_preconditioners;
          Alcotest.test_case "outside placement KCL" `Quick test_fd_outside_current_consistency;
          Alcotest.test_case "area fraction" `Quick test_fd_area_fraction;
          Alcotest.test_case "stats under a Resilient batch" `Quick test_fd_stats_under_resilient_batch;
        ] );
    ]
