(* Orthonormal discrete cosine transforms (DCT-II and its inverse DCT-III).

   The DCT-II basis vectors cos(pi (n + 1/2) k / N) are the eigenvectors of
   the 1-D cell-centered Neumann Laplacian, which is what makes the fast
   Poisson solver (thesis §2.2.2) and the eigenfunction substrate solver
   (§2.3.1, Fig 2-6) work: both conjugate their operators by the 2-D DCT.

   The orthonormal scaling s_0 = sqrt(1/N), s_k = sqrt(2/N) makes the
   transform matrix orthogonal, so DCT-III = inverse = transpose — keeping
   operators of the form C' Lambda C exactly symmetric in floating point
   structure. Power-of-two lengths run through cached FFT plans
   (O(n log n), precomputed twiddles); other lengths fall back to the
   direct O(n^2) sum. *)

(* Unnormalized DCT-II: c_k = sum_n x_n cos(pi (2n+1) k / (2N)). *)
let dct2_raw_naive x =
  let n = Array.length x in
  Array.init n (fun k ->
      let acc = ref 0.0 in
      for j = 0 to n - 1 do
        acc :=
          !acc
          +. (x.(j) *. cos (Float.pi *. float_of_int ((2 * j) + 1) *. float_of_int k /. float_of_int (2 * n)))
      done;
      !acc)

let dct2_raw x =
  let n = Array.length x in
  if Fft.is_power_of_two n then begin
    let out = Array.copy x in
    Plan.dct2_raw (Plan.get n) out ~off:0 ~stride:1 (Array.make n 0.0) (Array.make n 0.0);
    out
  end
  else dct2_raw_naive x

(* Exact inverse of [dct2_raw]:
   x_n = (1/N) c_0 + (2/N) sum_{k>=1} c_k cos(pi (2n+1) k / (2N)). *)
let idct2_raw_naive c =
  let n = Array.length c in
  Array.init n (fun j ->
      let acc = ref (c.(0) /. float_of_int n) in
      for k = 1 to n - 1 do
        acc :=
          !acc
          +. (2.0 /. float_of_int n *. c.(k)
             *. cos (Float.pi *. float_of_int ((2 * j) + 1) *. float_of_int k /. float_of_int (2 * n)))
      done;
      !acc)

let idct2_raw c =
  let n = Array.length c in
  if Fft.is_power_of_two n then begin
    let out = Array.copy c in
    Plan.idct2_raw (Plan.get n) out ~off:0 ~stride:1 (Array.make n 0.0) (Array.make n 0.0);
    out
  end
  else idct2_raw_naive c

let ortho_scale n k = if k = 0 then sqrt (1.0 /. float_of_int n) else sqrt (2.0 /. float_of_int n)

(* Orthonormal DCT-II. *)
let dct_ii x =
  let n = Array.length x in
  let c = dct2_raw x in
  Array.mapi (fun k v -> ortho_scale n k *. v) c

(* Orthonormal DCT-III (inverse and transpose of [dct_ii]). *)
let dct_iii y =
  let n = Array.length y in
  let c = Array.mapi (fun k v -> v /. ortho_scale n k) y in
  idct2_raw c

(* ------------------------------------------------------------------ *)
(* 2-D transforms on flat row-major arrays with x fastest:
   index = ix + nx * iy. A stack of planes (index + nx * ny * plane) is
   transformed plane by plane, in place. *)

let check_planes ~nx ~ny a name =
  if nx <= 0 || ny <= 0 || Array.length a mod (nx * ny) <> 0 then
    invalid_arg
      (Printf.sprintf "Dct.%s: expected a multiple of %d*%d elements, got %d" name nx ny
         (Array.length a))

type direction = Forward | Inverse

(* Power-of-two sizes: each row and each (strided) column is transformed
   where it lies, with one scratch set for the whole call. The orthonormal
   scaling is applied after the forward and before the inverse raw
   transform. *)
let transform_planes_fast dir ~nx ~ny a =
  let plan_x = Plan.get nx and plan_y = Plan.get ny in
  let nmax = max nx ny in
  let re = Array.make nmax 0.0 and im = Array.make nmax 0.0 in
  let scale len ~off ~stride s0 s =
    a.(off) <- a.(off) *. s0;
    for k = 1 to len - 1 do
      let j = off + (k * stride) in
      a.(j) <- a.(j) *. s
    done
  in
  (* The factors applied after the forward (before the inverse) raw
     transform of length [len], bound once per call. *)
  let factors len =
    match dir with
    | Forward -> (sqrt (1.0 /. float_of_int len), sqrt (2.0 /. float_of_int len))
    | Inverse -> (sqrt (float_of_int len), sqrt (float_of_int len /. 2.0))
  in
  let sx0, sx = factors nx and sy0, sy = factors ny in
  let run plan len s0 s ~off ~stride =
    match dir with
    | Forward ->
      Plan.dct2_raw plan a ~off ~stride re im;
      scale len ~off ~stride s0 s
    | Inverse ->
      scale len ~off ~stride s0 s;
      Plan.idct2_raw plan a ~off ~stride re im
  in
  let plane = nx * ny in
  for p = 0 to (Array.length a / plane) - 1 do
    let base = p * plane in
    (* Along x: contiguous rows. *)
    for iy = 0 to ny - 1 do
      run plan_x nx sx0 sx ~off:(base + (iy * nx)) ~stride:1
    done;
    (* Along y: strided columns. *)
    for ix = 0 to nx - 1 do
      run plan_y ny sy0 sy ~off:(base + ix) ~stride:nx
    done
  done

let transform_2d_slow f1d ~nx ~ny a =
  let out = Array.copy a in
  let rowbuf = Array.make nx 0.0 in
  for iy = 0 to ny - 1 do
    Array.blit out (iy * nx) rowbuf 0 nx;
    let t = f1d rowbuf in
    Array.blit t 0 out (iy * nx) nx
  done;
  let colbuf = Array.make ny 0.0 in
  for ix = 0 to nx - 1 do
    for iy = 0 to ny - 1 do
      colbuf.(iy) <- out.((iy * nx) + ix)
    done;
    let t = f1d colbuf in
    for iy = 0 to ny - 1 do
      out.((iy * nx) + ix) <- t.(iy)
    done
  done;
  out

let transform_planes dir name ~nx ~ny a =
  check_planes ~nx ~ny a name;
  if Fft.is_power_of_two nx && Fft.is_power_of_two ny then transform_planes_fast dir ~nx ~ny a
  else begin
    let f1d = match dir with Forward -> dct_ii | Inverse -> dct_iii in
    let plane = nx * ny in
    for p = 0 to (Array.length a / plane) - 1 do
      let t = transform_2d_slow f1d ~nx ~ny (Array.sub a (p * plane) plane) in
      Array.blit t 0 a (p * plane) plane
    done
  end

let dct_ii_planes ~nx ~ny a = transform_planes Forward "dct_ii_planes" ~nx ~ny a
let dct_iii_planes ~nx ~ny a = transform_planes Inverse "dct_iii_planes" ~nx ~ny a

let transform_2d dir name ~nx ~ny a =
  if Array.length a <> nx * ny then
    invalid_arg (Printf.sprintf "Dct.%s: expected %d*%d elements, got %d" name nx ny (Array.length a));
  let out = Array.copy a in
  transform_planes dir name ~nx ~ny out;
  out

let dct_ii_2d ~nx ~ny a = transform_2d Forward "dct_ii_2d" ~nx ~ny a
let dct_iii_2d ~nx ~ny a = transform_2d Inverse "dct_iii_2d" ~nx ~ny a

(* Eigenvalue of the 1-D cell-centered Neumann Laplacian
   (stencil [1,-1] / [-1,2,-1] / [-1,1]) for DCT-II mode k of n. *)
let neumann_laplacian_eigenvalue ~n ~k =
  2.0 -. (2.0 *. cos (Float.pi *. float_of_int k /. float_of_int n))
