(* Tests for the dense linear-algebra substrate. *)

open La

let rng = Rng.create 42

let check_float = Alcotest.(check (float 1e-9))

let mat_small_gen =
  (* Random well-scaled matrices up to 8x8 for property tests. *)
  QCheck2.Gen.(
    let* m = int_range 1 8 in
    let* n = int_range 1 8 in
    let* entries = list_repeat (m * n) (float_range (-10.0) 10.0) in
    let entries = Array.of_list entries in
    return (Mat.init m n (fun i j -> entries.((i * n) + j))))

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_dot () =
  check_float "dot" 32.0 (Vec.dot [| 1.0; 2.0; 3.0 |] [| 4.0; 5.0; 6.0 |])

let test_vec_axpy () =
  let y = [| 1.0; 1.0 |] in
  Vec.axpy ~alpha:2.0 [| 3.0; 4.0 |] y;
  Alcotest.(check bool) "axpy" true (Vec.approx_equal y [| 7.0; 9.0 |])

let test_vec_norms () =
  check_float "norm2" 5.0 (Vec.norm2 [| 3.0; 4.0 |]);
  check_float "norm_inf" 4.0 (Vec.norm_inf [| 3.0; -4.0 |]);
  check_float "sum" (-1.0) (Vec.sum [| 3.0; -4.0 |])

let test_vec_normalize () =
  let v = Vec.normalize [| 3.0; 4.0 |] in
  check_float "unit norm" 1.0 (Vec.norm2 v);
  let z = Vec.normalize [| 0.0; 0.0 |] in
  check_float "zero stays zero" 0.0 (Vec.norm2 z)

let test_vec_mismatch () =
  Alcotest.check_raises "dot mismatch" (Invalid_argument "Vec.dot: dimension mismatch (2 vs 3)")
    (fun () -> ignore (Vec.dot [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |]))

(* ------------------------------------------------------------------ *)
(* Mat *)

let test_mat_mul () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Mat.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Mat.mul a b in
  Alcotest.(check bool) "product" true
    (Mat.approx_equal c (Mat.of_arrays [| [| 19.0; 22.0 |]; [| 43.0; 50.0 |] |]))

let test_mat_gemv () =
  let a = Mat.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  Alcotest.(check bool) "gemv" true (Vec.approx_equal (Mat.gemv a [| 1.0; 1.0; 1.0 |]) [| 6.0; 15.0 |]);
  Alcotest.(check bool) "gemv_t" true
    (Vec.approx_equal (Mat.gemv_t a [| 1.0; 1.0 |]) [| 5.0; 7.0; 9.0 |])

let test_mat_select () =
  let a = Mat.init 4 4 (fun i j -> float_of_int ((10 * i) + j)) in
  let s = Mat.select a ~row_idx:[| 3; 1 |] ~col_idx:[| 0; 2 |] in
  Alcotest.(check bool) "select" true
    (Mat.approx_equal s (Mat.of_arrays [| [| 30.0; 32.0 |]; [| 10.0; 12.0 |] |]))

let test_mat_cat () =
  let a = Mat.of_arrays [| [| 1.0 |]; [| 2.0 |] |] in
  let b = Mat.of_arrays [| [| 3.0 |]; [| 4.0 |] |] in
  let h = Mat.hcat a b in
  Alcotest.(check int) "hcat cols" 2 (Mat.cols h);
  let v = Mat.vcat a b in
  Alcotest.(check int) "vcat rows" 4 (Mat.rows v);
  Alcotest.(check bool) "vcat content" true
    (Vec.approx_equal (Mat.col v 0) [| 1.0; 2.0; 3.0; 4.0 |])

let test_mat_of_cols () =
  let m = Mat.of_cols [ [| 1.0; 2.0 |]; [| 3.0; 4.0 |] ] in
  Alcotest.(check bool) "of_cols" true
    (Mat.approx_equal m (Mat.of_arrays [| [| 1.0; 3.0 |]; [| 2.0; 4.0 |] |]))

let prop_transpose_involution =
  qtest "transpose involution" mat_small_gen (fun a ->
      Mat.approx_equal a (Mat.transpose (Mat.transpose a)))

let prop_gemv_matches_mul =
  qtest "gemv agrees with mul" mat_small_gen (fun a ->
      let x = Vec.init (Mat.cols a) (fun i -> float_of_int (i + 1)) in
      let as_mat = Mat.mul a (Mat.of_cols [ x ]) in
      Vec.approx_equal ~tol:1e-8 (Mat.gemv a x) (Mat.col as_mat 0))

let prop_gemv_t_matches_transpose =
  qtest "gemv_t agrees with explicit transpose" mat_small_gen (fun a ->
      let x = Vec.init (Mat.rows a) (fun i -> float_of_int (i + 1)) in
      Vec.approx_equal ~tol:1e-8 (Mat.gemv_t a x) (Mat.gemv (Mat.transpose a) x))

(* ------------------------------------------------------------------ *)
(* QR *)

let is_orthogonal ?(tol = 1e-8) q =
  Mat.approx_equal ~tol (Mat.mul (Mat.transpose q) q) (Mat.identity (Mat.cols q))

let test_qr_reconstruct () =
  let a = Mat.random rng 7 4 in
  let f = Qr.decomp a in
  Alcotest.(check bool) "Q orthogonal" true (is_orthogonal f.Qr.q);
  Alcotest.(check bool) "A = QR" true (Mat.approx_equal ~tol:1e-8 a (Qr.reconstruct f))

let test_qr_pivoted_reconstruct () =
  let a = Mat.random rng 5 8 in
  let f = Qr.decomp ~pivot:true a in
  Alcotest.(check bool) "A = QR P'" true (Mat.approx_equal ~tol:1e-8 a (Qr.reconstruct f))

let test_qr_rank_detection () =
  (* Rank-2 matrix: third column is the sum of the first two. *)
  let c1 = [| 1.0; 0.0; 2.0; 1.0 |] and c2 = [| 0.0; 1.0; 1.0; 3.0 |] in
  let a = Mat.of_cols [ c1; c2; Vec.add c1 c2 ] in
  let f = Qr.decomp ~pivot:true ~tol:1e-10 a in
  Alcotest.(check int) "rank 2" 2 f.Qr.rank

let test_qr_range_split () =
  let c1 = [| 1.0; 0.0; 2.0; 1.0 |] and c2 = [| 0.0; 1.0; 1.0; 3.0 |] in
  let a = Mat.of_cols [ c1; c2; Vec.add c1 c2 ] in
  let range, compl = Qr.range_split a in
  Alcotest.(check int) "range dim" 2 (Mat.cols range);
  Alcotest.(check int) "complement dim" 2 (Mat.cols compl);
  (* Complement columns must be orthogonal to the original columns. *)
  let inner = Mat.mul (Mat.transpose compl) a in
  Alcotest.(check bool) "complement orthogonal to A" true (Mat.max_abs inner < 1e-8);
  (* Together they form an orthonormal basis of R^4. *)
  Alcotest.(check bool) "full basis orthogonal" true (is_orthogonal (Mat.hcat range compl))

let prop_qr_roundtrip =
  qtest "pivoted QR reconstructs" mat_small_gen (fun a ->
      Mat.approx_equal ~tol:1e-7 a (Qr.reconstruct (Qr.decomp ~pivot:true a)))

let prop_qr_q_orthogonal =
  qtest "QR Q orthogonal" mat_small_gen (fun a -> is_orthogonal ~tol:1e-7 (Qr.decomp a).Qr.q)

(* ------------------------------------------------------------------ *)
(* SVD *)

let test_svd_known () =
  (* diag(3, 2) has singular values 3, 2. *)
  let a = Mat.of_arrays [| [| 0.0; 2.0 |]; [| 3.0; 0.0 |] |] in
  let { Svd.s; _ } = Svd.decomp a in
  check_float "sigma1" 3.0 s.(0);
  check_float "sigma2" 2.0 s.(1)

let test_svd_reconstruct_tall () =
  let a = Mat.random rng 9 4 in
  let f = Svd.decomp a in
  Alcotest.(check bool) "reconstruct" true (Mat.approx_equal ~tol:1e-7 a (Svd.reconstruct f));
  Alcotest.(check bool) "V orthogonal" true (is_orthogonal f.Svd.v);
  Alcotest.(check bool) "U columns orthonormal" true (is_orthogonal f.Svd.u)

let test_svd_reconstruct_wide () =
  let a = Mat.random rng 3 7 in
  let f = Svd.decomp a in
  Alcotest.(check bool) "reconstruct" true (Mat.approx_equal ~tol:1e-7 a (Svd.reconstruct f));
  Alcotest.(check bool) "U full orthogonal" true (is_orthogonal f.Svd.u)

let test_svd_rank_deficient () =
  (* Outer product has rank 1; V must still be a full orthogonal basis. *)
  let u = [| 1.0; 2.0; 3.0 |] and v = [| 4.0; 5.0 |] in
  let a = Mat.init 3 2 (fun i j -> u.(i) *. v.(j)) in
  let f = Svd.decomp a in
  Alcotest.(check int) "rank 1" 1 (Svd.rank f);
  Alcotest.(check bool) "V orthogonal despite rank deficiency" true (is_orthogonal f.Svd.v);
  check_float "sigma2 ~ 0" 0.0 f.Svd.s.(1)

let test_svd_truncate () =
  let a = Mat.random rng 6 4 in
  let f = Svd.decomp a in
  let t = Svd.truncate f ~keep:(fun i _ -> i < 2) in
  Alcotest.(check int) "kept" 2 (Array.length t.Svd.s);
  Alcotest.(check int) "u cols" 2 (Mat.cols t.Svd.u)

let test_svd_zero_matrix () =
  let f = Svd.decomp (Mat.create 4 3) in
  Alcotest.(check int) "rank 0" 0 (Svd.rank f);
  Alcotest.(check bool) "V still orthogonal" true (is_orthogonal f.Svd.v);
  Alcotest.(check (float 0.0)) "sigma 0" 0.0 f.Svd.s.(0)

let test_svd_duplicate_columns () =
  (* Repeated columns force exact rank deficiency; Jacobi must terminate and
     V stay orthogonal. *)
  let c = [| 1.0; -2.0; 0.5; 3.0 |] in
  let a = Mat.of_cols [ c; c; c ] in
  let f = Svd.decomp a in
  Alcotest.(check int) "rank 1" 1 (Svd.rank f);
  Alcotest.(check bool) "reconstructs" true (Mat.approx_equal ~tol:1e-8 a (Svd.reconstruct f));
  Alcotest.(check bool) "V orthogonal" true (is_orthogonal f.Svd.v)

let test_qr_zero_matrix () =
  let f = Qr.decomp ~pivot:true (Mat.create 3 2) in
  Alcotest.(check int) "rank 0" 0 f.Qr.rank;
  let range, compl = Qr.range_split (Mat.create 3 2) in
  Alcotest.(check int) "empty range" 0 (Mat.cols range);
  Alcotest.(check int) "full complement" 3 (Mat.cols compl)

let prop_svd_values_descending =
  qtest "singular values sorted descending" mat_small_gen (fun a ->
      let { Svd.s; _ } = Svd.decomp a in
      let ok = ref true in
      for i = 0 to Array.length s - 2 do
        if s.(i) < s.(i + 1) -. 1e-12 then ok := false
      done;
      !ok)

let prop_svd_reconstructs =
  qtest "SVD reconstructs A" mat_small_gen (fun a ->
      Mat.approx_equal ~tol:1e-6 a (Svd.reconstruct (Svd.decomp a)))

let prop_svd_frobenius =
  qtest "Frobenius norm = sqrt(sum sigma^2)" mat_small_gen (fun a ->
      let { Svd.s; _ } = Svd.decomp a in
      let fro2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 s in
      Float.abs (sqrt fro2 -. Mat.frobenius a) < 1e-7 *. (1.0 +. Mat.frobenius a))

(* ------------------------------------------------------------------ *)
(* Cholesky *)

let spd_of rng n =
  let b = Mat.random rng n (n + 2) in
  Mat.add (Mat.mul b (Mat.transpose b)) (Mat.scale 0.1 (Mat.identity n))

let test_cholesky_factor () =
  let a = spd_of rng 6 in
  let l = Cholesky.factor a in
  Alcotest.(check bool) "L L' = A" true (Mat.approx_equal ~tol:1e-8 a (Mat.mul l (Mat.transpose l)))

let test_cholesky_solve () =
  let a = spd_of rng 6 in
  let x_true = Vec.init 6 (fun i -> float_of_int (i - 3)) in
  let b = Mat.gemv a x_true in
  let x = Cholesky.solve a b in
  Alcotest.(check bool) "solution" true (Vec.approx_equal ~tol:1e-7 x x_true)

let test_cholesky_inverse () =
  let a = spd_of rng 4 in
  let inv = Cholesky.inverse a in
  Alcotest.(check bool) "A A^{-1} = I" true
    (Mat.approx_equal ~tol:1e-7 (Mat.mul a inv) (Mat.identity 4))

let test_cholesky_rejects_indefinite () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.check_raises "indefinite" (Cholesky.Not_positive_definite 1) (fun () ->
      ignore (Cholesky.factor a))

(* ------------------------------------------------------------------ *)
(* Tridiag *)

let test_tridiag_solve () =
  let lower = [| 0.0; -1.0; -1.0; -1.0 |] in
  let diag = [| 2.0; 2.0; 2.0; 2.0 |] in
  let upper = [| -1.0; -1.0; -1.0; 0.0 |] in
  let x_true = [| 1.0; -2.0; 3.0; 0.5 |] in
  let rhs = Tridiag.apply ~lower ~diag ~upper x_true in
  let x = Tridiag.solve ~lower ~diag ~upper ~rhs in
  Alcotest.(check bool) "roundtrip" true (Vec.approx_equal ~tol:1e-10 x x_true)

let prop_tridiag_roundtrip =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 2 20 in
      let* d = list_repeat n (float_range 3.0 6.0) in
      let* l = list_repeat n (float_range (-1.0) 1.0) in
      let* u = list_repeat n (float_range (-1.0) 1.0) in
      let* x = list_repeat n (float_range (-5.0) 5.0) in
      return (Array.of_list d, Array.of_list l, Array.of_list u, Array.of_list x))
  in
  qtest "tridiag solve roundtrip (diagonally dominant)" gen (fun (diag, lower, upper, x) ->
      let rhs = Tridiag.apply ~lower ~diag ~upper x in
      let x' = Tridiag.solve ~lower ~diag ~upper ~rhs in
      Vec.approx_equal ~tol:1e-8 x x')

let test_tridiag_factored_strided () =
  (* One factor serves right-hand sides interleaved at a stride, in place,
     with the bits of [solve]; positions past the array are refused. *)
  let lower = [| 0.0; -1.0; -0.5; -1.0 |] and diag = [| 2.5; 3.0; 2.0; 4.0 |] in
  let upper = [| -1.0; -0.25; -1.0; 0.0 |] in
  let f = Tridiag.factor ~lower ~diag ~upper in
  let rhs = Array.init 3 (fun _ -> Rng.gaussian_array rng 4) in
  let x = Array.init 12 (fun j -> rhs.(j mod 3).(j / 3)) in
  for k = 0 to 2 do
    Tridiag.solve_factored f ~off:k ~stride:3 x
  done;
  for k = 0 to 2 do
    let expected = Tridiag.solve ~lower ~diag ~upper ~rhs:rhs.(k) in
    Array.iteri
      (fun i v ->
        Alcotest.(check int64) (Printf.sprintf "rhs %d row %d" k i) (Int64.bits_of_float v)
          (Int64.bits_of_float x.(k + (3 * i))))
      expected
  done;
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Tridiag.solve_factored: right-hand side out of bounds") (fun () ->
      Tridiag.solve_factored f ~off:1 ~stride:4 (Array.make 12 0.0))

(* ------------------------------------------------------------------ *)
(* Krylov *)

let test_cg_dense_spd () =
  let a = spd_of rng 20 in
  let x_true = Vec.init 20 (fun i -> sin (float_of_int i)) in
  let b = Mat.gemv a x_true in
  let r = Krylov.cg ~apply:(Mat.gemv a) ~tol:1e-12 b in
  Alcotest.(check bool) "converged" true r.Krylov.converged;
  Alcotest.(check bool) "solution" true (Vec.approx_equal ~tol:1e-6 r.Krylov.x x_true)

let test_cg_preconditioned_faster () =
  (* Ill-conditioned diagonal system: Jacobi preconditioning solves it in
     one iteration while plain CG needs many. *)
  let n = 50 in
  let d = Array.init n (fun i -> 1.0 +. (float_of_int i *. 100.0)) in
  let apply v = Array.mapi (fun i x -> d.(i) *. x) v in
  let precond v = Array.mapi (fun i x -> x /. d.(i)) v in
  let b = Array.make n 1.0 in
  let plain = Krylov.cg ~apply ~tol:1e-10 b in
  let pre = Krylov.cg ~apply ~precond ~tol:1e-10 b in
  Alcotest.(check bool) "both converged" true (plain.Krylov.converged && pre.Krylov.converged);
  Alcotest.(check bool) "preconditioning reduces iterations" true
    (pre.Krylov.iterations < plain.Krylov.iterations)

let test_cg_zero_rhs () =
  let r = Krylov.cg ~apply:(fun v -> v) (Vec.create 5) in
  Alcotest.(check bool) "zero solution" true (Vec.approx_equal r.Krylov.x (Vec.create 5));
  Alcotest.(check int) "no iterations" 0 r.Krylov.iterations

let test_cg_stats () =
  let stats = Krylov.make_stats () in
  let a = spd_of rng 10 in
  let b = Array.make 10 1.0 in
  ignore (Krylov.cg ~apply:(Mat.gemv a) ~stats b);
  ignore (Krylov.cg ~apply:(Mat.gemv a) ~stats b);
  Alcotest.(check int) "two solves" 2 stats.Krylov.solves;
  Alcotest.(check bool) "avg iterations positive" true (Krylov.average_iterations stats > 0.0)

let test_cg_rejects_mismatched_dimensions () =
  (* The length checks a solve relies on: x0 is checked up front and named
     as Krylov.cg's; a callback result of the wrong length is caught by
     the first Vec kernel that reads it. *)
  let a = spd_of rng 4 in
  let b = Array.make 4 1.0 in
  Alcotest.check_raises "short x0" (Invalid_argument "Krylov.cg: x0 has dimension 3, b has 4")
    (fun () -> ignore (Krylov.cg ~apply:(Mat.gemv a) ~x0:(Array.make 3 0.0) b));
  Alcotest.check_raises "long x0" (Invalid_argument "Krylov.cg: x0 has dimension 5, b has 4")
    (fun () -> ignore (Krylov.cg ~apply:(Mat.gemv a) ~x0:(Array.make 5 0.0) b));
  Alcotest.check_raises "apply result too short"
    (Invalid_argument "Vec.sub: dimension mismatch (4 vs 3)") (fun () ->
      ignore (Krylov.cg ~apply:(fun _ -> Array.make 3 0.0) b));
  Alcotest.check_raises "precond result too long"
    (Invalid_argument "Vec.dot: dimension mismatch (4 vs 5)") (fun () ->
      ignore (Krylov.cg ~apply:(Mat.gemv a) ~precond:(fun _ -> Array.make 5 1.0) b))

(* ------------------------------------------------------------------ *)
(* CG against the boxed reference recurrence: bit identity *)

let float_bits_equal x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let vec_bits_equal a b =
  Array.length a = Array.length b
  &&
  let rec loop i = i >= Array.length a || (float_bits_equal a.(i) b.(i) && loop (i + 1)) in
  loop 0

(* Full-result equality of the two CG implementations. *)
let cg_results_equal (a : Krylov.result) (b : Krylov.result) =
  vec_bits_equal a.Krylov.x b.Krylov.x
  && a.Krylov.iterations = b.Krylov.iterations
  && a.Krylov.converged = b.Krylov.converged
  && a.Krylov.breakdown = b.Krylov.breakdown
  && float_bits_equal a.Krylov.residual_norm b.Krylov.residual_norm
  && float_bits_equal a.Krylov.recurrence_residual b.Krylov.recurrence_residual
  && a.Krylov.residual_mismatch = b.Krylov.residual_mismatch

let spd_system_gen =
  QCheck2.Gen.(
    let* n = int_range 1 12 in
    let* entries = list_repeat (n * n) (float_range (-2.0) 2.0) in
    let* b = list_repeat n (float_range (-5.0) 5.0) in
    let* x0 = list_repeat n (float_range (-1.0) 1.0) in
    let c = Mat.init n n (fun i j -> List.nth entries ((i * n) + j)) in
    (* A = C'C + n I: SPD by construction. *)
    let a = Mat.mul (Mat.transpose c) c in
    let a = Mat.add a (Mat.scale (float_of_int n) (Mat.identity n)) in
    return (a, Array.of_list b, Array.of_list x0))

let prop_cg_matches_reference =
  qtest ~count:60 "cg bit-identical to cg_boxed (plain, precond, x0, max_iter; b, x0 unchanged)"
    spd_system_gen (fun (a, b, x0) ->
      let apply = Mat.gemv a in
      let jacobi v = Array.mapi (fun i x -> x /. Mat.get a i i) v in
      let b_before = Vec.copy b and x0_before = Vec.copy x0 in
      (* [cg] works in place on float arrays: after every call the
         caller's b and x0 must still hold their original bits. *)
      let agrees solve reference =
        let got = solve () in
        vec_bits_equal b b_before && vec_bits_equal x0 x0_before
        && cg_results_equal got (reference ())
      in
      agrees (fun () -> Krylov.cg ~apply b) (fun () -> Cg_reference.cg_boxed ~apply b)
      && agrees
           (fun () -> Krylov.cg ~apply ~precond:jacobi b)
           (fun () -> Cg_reference.cg_boxed ~apply ~precond:jacobi b)
      && agrees (fun () -> Krylov.cg ~apply ~x0 b) (fun () -> Cg_reference.cg_boxed ~apply ~x0 b)
      && agrees
           (fun () -> Krylov.cg ~apply ~precond:jacobi ~x0 b)
           (fun () -> Cg_reference.cg_boxed ~apply ~precond:jacobi ~x0 b)
      && agrees
           (fun () -> Krylov.cg ~apply ~max_iter:2 b)
           (fun () -> Cg_reference.cg_boxed ~apply ~max_iter:2 b))

let test_cg_matches_boxed_breakdown () =
  (* Negative-definite operator: p'Ap < 0 on the first iteration, the
     breakdown path recomputes the true residual — both implementations
     must agree on every field. *)
  let apply v = Array.map (fun x -> -.x) v in
  let b = Array.init 9 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check bool) "breakdown results identical" true
    (cg_results_equal (Krylov.cg ~apply b) (Cg_reference.cg_boxed ~apply b));
  Alcotest.(check bool) "breakdown flagged" true (Krylov.cg ~apply b).Krylov.breakdown

let test_cg_scratch_not_retained () =
  (* The .mli contract: the array handed to [apply] is a reused scratch
     buffer, and the callback may reuse its own output buffer. A callback
     doing both (like the FD solver's apply_into closure) must still see
     bit-identical results. *)
  let a = spd_of rng 16 in
  let b = Array.init 16 (fun i -> cos (float_of_int i)) in
  let out = Array.make 16 0.0 in
  let reusing v =
    let y = Mat.gemv a v in
    Array.blit y 0 out 0 16;
    out
  in
  Alcotest.(check bool) "buffer-reusing apply matches fresh-array apply" true
    (cg_results_equal (Krylov.cg ~apply:reusing b) (Krylov.cg ~apply:(Mat.gemv a) b))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.gaussian_array (Rng.create 7) 10 in
  let b = Rng.gaussian_array (Rng.create 7) 10 in
  Alcotest.(check bool) "same seed, same stream" true (Vec.approx_equal a b)

let test_rng_float_range () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_gaussian_moments () =
  let xs = Rng.gaussian_array (Rng.create 3) 20000 in
  let mean = Vec.sum xs /. 20000.0 in
  let var = Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. 20000.0 in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "variance ~ 1" true (Float.abs (var -. 1.0) < 0.05)

let () =
  Alcotest.run "la"
    [
      ( "vec",
        [
          Alcotest.test_case "dot" `Quick test_vec_dot;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "norms" `Quick test_vec_norms;
          Alcotest.test_case "normalize" `Quick test_vec_normalize;
          Alcotest.test_case "dimension mismatch raises" `Quick test_vec_mismatch;
        ] );
      ( "mat",
        [
          Alcotest.test_case "mul" `Quick test_mat_mul;
          Alcotest.test_case "gemv" `Quick test_mat_gemv;
          Alcotest.test_case "select" `Quick test_mat_select;
          Alcotest.test_case "hcat/vcat" `Quick test_mat_cat;
          Alcotest.test_case "of_cols" `Quick test_mat_of_cols;
          prop_transpose_involution;
          prop_gemv_matches_mul;
          prop_gemv_t_matches_transpose;
        ] );
      ( "qr",
        [
          Alcotest.test_case "reconstruct" `Quick test_qr_reconstruct;
          Alcotest.test_case "pivoted reconstruct" `Quick test_qr_pivoted_reconstruct;
          Alcotest.test_case "rank detection" `Quick test_qr_rank_detection;
          Alcotest.test_case "range split" `Quick test_qr_range_split;
          Alcotest.test_case "zero matrix" `Quick test_qr_zero_matrix;
          prop_qr_roundtrip;
          prop_qr_q_orthogonal;
        ] );
      ( "svd",
        [
          Alcotest.test_case "known values" `Quick test_svd_known;
          Alcotest.test_case "reconstruct tall" `Quick test_svd_reconstruct_tall;
          Alcotest.test_case "reconstruct wide" `Quick test_svd_reconstruct_wide;
          Alcotest.test_case "rank deficient" `Quick test_svd_rank_deficient;
          Alcotest.test_case "truncate" `Quick test_svd_truncate;
          Alcotest.test_case "zero matrix" `Quick test_svd_zero_matrix;
          Alcotest.test_case "duplicate columns" `Quick test_svd_duplicate_columns;
          prop_svd_values_descending;
          prop_svd_reconstructs;
          prop_svd_frobenius;
        ] );
      ( "cholesky",
        [
          Alcotest.test_case "factor" `Quick test_cholesky_factor;
          Alcotest.test_case "solve" `Quick test_cholesky_solve;
          Alcotest.test_case "inverse" `Quick test_cholesky_inverse;
          Alcotest.test_case "rejects indefinite" `Quick test_cholesky_rejects_indefinite;
        ] );
      ( "tridiag",
        [
          Alcotest.test_case "solve" `Quick test_tridiag_solve;
          Alcotest.test_case "factored strided in place" `Quick test_tridiag_factored_strided;
          prop_tridiag_roundtrip;
        ] );
      ( "krylov",
        [
          Alcotest.test_case "dense SPD" `Quick test_cg_dense_spd;
          Alcotest.test_case "preconditioning helps" `Quick test_cg_preconditioned_faster;
          Alcotest.test_case "zero rhs" `Quick test_cg_zero_rhs;
          Alcotest.test_case "stats accumulate" `Quick test_cg_stats;
          Alcotest.test_case "mismatched dimensions rejected" `Quick
            test_cg_rejects_mismatched_dimensions;
        ] );
      ( "kernels",
        [
          prop_cg_matches_reference;
          Alcotest.test_case "cg breakdown path matches boxed" `Quick
            test_cg_matches_boxed_breakdown;
          Alcotest.test_case "cg tolerates buffer-reusing apply" `Quick
            test_cg_scratch_not_retained;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
        ] );
    ]
