(* Tridiagonal system solver (Thomas algorithm).

   The fast Poisson preconditioner (thesis §2.2.2) reduces the 3-D grid
   Laplacian, after a 2-D DCT in x and y, to one tridiagonal system in z per
   Fourier mode; each is solved here in O(nz). Its matrices never change
   between preconditioner applications, so the elimination is split into
   [factor] (the pivots and ratios, which depend on the matrix alone) and
   [solve_factored] (the right-hand-side sweeps, in place). *)

(* [lower] is kept for the forward sweep; [pivot.(i)] is the eliminated
   diagonal m_i and [ratio.(i)] the eliminated superdiagonal c'_i. *)
type factor = { lower : float array; pivot : float array; ratio : float array }

(* [lower.(i)] couples row i to i-1 (lower.(0) unused); [upper.(i)] couples
   row i to i+1 (last entry unused). *)
let factor ~lower ~diag ~upper =
  let n = Array.length diag in
  if Array.length lower <> n || Array.length upper <> n then
    invalid_arg "Tridiag.factor: dimension mismatch";
  let pivot = Array.make n 0.0 and ratio = Array.make n 0.0 in
  (* Exact-zero pivot checks: the elimination only divides, so any nonzero
     pivot is arithmetically usable; near-zero accuracy loss is the
     caller's conditioning problem, not a reason to refuse the solve. *)
  if n > 0 then begin
    if Float.equal diag.(0) 0.0 then invalid_arg "Tridiag.factor: zero pivot";
    pivot.(0) <- diag.(0);
    ratio.(0) <- upper.(0) /. diag.(0);
    for i = 1 to n - 1 do
      let m = diag.(i) -. (lower.(i) *. ratio.(i - 1)) in
      if Float.equal m 0.0 then invalid_arg "Tridiag.factor: zero pivot";
      pivot.(i) <- m;
      ratio.(i) <- upper.(i) /. m
    done
  end;
  { lower = Array.copy lower; pivot; ratio }

(* Overwrite the right-hand side x.(off + i * stride), i < n, with the
   solution: the forward sweep leaves d'_i in place, the back substitution
   turns it into x_i. The divisions by the pivot are the ones the unsplit
   elimination performs, so the bits match it. *)
let solve_factored f ~off ~stride (x : float array) =
  let n = Array.length f.pivot in
  if n > 0 then begin
    if off < 0 || stride < 1 || off + ((n - 1) * stride) >= Array.length x then
      invalid_arg "Tridiag.solve_factored: right-hand side out of bounds";
    let { lower; pivot; ratio } = f in
    x.(off) <- x.(off) /. pivot.(0);
    for i = 1 to n - 1 do
      let j = off + (i * stride) in
      x.(j) <- (x.(j) -. (lower.(i) *. x.(j - stride))) /. pivot.(i)
    done;
    for i = n - 2 downto 0 do
      let j = off + (i * stride) in
      x.(j) <- x.(j) -. (ratio.(i) *. x.(j + stride))
    done
  end

let solve ~lower ~diag ~upper ~rhs =
  if Array.length rhs <> Array.length diag then invalid_arg "Tridiag.solve: dimension mismatch";
  let f = factor ~lower ~diag ~upper in
  let x = Array.copy rhs in
  solve_factored f ~off:0 ~stride:1 x;
  x

(* Dense application, for testing: y = T x. *)
let apply ~lower ~diag ~upper (x : Vec.t) : Vec.t =
  let n = Array.length diag in
  Array.init n (fun i ->
      let v = diag.(i) *. x.(i) in
      let v = if i > 0 then v +. (lower.(i) *. x.(i - 1)) else v in
      if i < n - 1 then v +. (upper.(i) *. x.(i + 1)) else v)
