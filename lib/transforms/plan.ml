(* Precomputed FFT/DCT plans.

   The substrate solvers apply thousands of DCTs of the same length (every
   PCG iteration transforms every grid plane), so the bit-reversal
   permutation, the per-stage twiddle factors and the DCT boundary twist are
   computed once per length and cached. *)

type t = {
  n : int;
  rev : int array;  (* bit-reversal permutation *)
  (* Twiddles for each butterfly stage: stage s handles blocks of length
     2^(s+1) and needs 2^s factors exp(-i pi k / 2^s). *)
  stage_wr : float array array;
  stage_wi : float array array;
  (* DCT-II twist factors exp(-i pi k / 2n). *)
  twist_c : float array;
  twist_s : float array;
}

let create n =
  if not (Fft.is_power_of_two n) then invalid_arg "Plan.create: length must be a power of two";
  let bits =
    let rec go b m = if m = 1 then b else go (b + 1) (m lsr 1) in
    go 0 n
  in
  let rev = Array.make n 0 in
  for i = 0 to n - 1 do
    let r = ref 0 in
    for b = 0 to bits - 1 do
      if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
    done;
    rev.(i) <- !r
  done;
  let stage_wr = Array.make bits [||] and stage_wi = Array.make bits [||] in
  for s = 0 to bits - 1 do
    let half = 1 lsl s in
    stage_wr.(s) <- Array.init half (fun k -> cos (-.Float.pi *. float_of_int k /. float_of_int half));
    stage_wi.(s) <- Array.init half (fun k -> sin (-.Float.pi *. float_of_int k /. float_of_int half))
  done;
  let twist_c = Array.init n (fun k -> cos (Float.pi *. float_of_int k /. float_of_int (2 * n))) in
  let twist_s = Array.init n (fun k -> sin (Float.pi *. float_of_int k /. float_of_int (2 * n))) in
  { n; rev; stage_wr; stage_wi; twist_c; twist_s }

(* Cache plans per length; substrate grids use at most a handful of sizes.
   The cache is consulted from every domain of a parallel batched solve, so
   lookups are serialized; a plan is immutable once built and safe to share. *)
let cache : (int, t) Hashtbl.t =
  Hashtbl.create 8
[@@lint.allow domain_safety
  "every access goes through Mutex.protect cache_mutex in [get]; plans are immutable once built"]

let cache_mutex = Mutex.create ()

let get n =
  Mutex.protect cache_mutex (fun () ->
      match Hashtbl.find_opt cache n with
      | Some p -> p
      | None ->
        let p = create n in
        Hashtbl.replace cache n p;
        p)

(* In-place FFT using the plan's tables; [sign] as in Fft.transform. *)
let fft t ~sign (re : float array) (im : float array) =
  let n = t.n in
  (* Bit-reversal permutation. *)
  for i = 0 to n - 1 do
    let j = t.rev.(i) in
    if i < j then begin
      let tr = re.(i) and ti = im.(i) in
      re.(i) <- re.(j);
      im.(i) <- im.(j);
      re.(j) <- tr;
      im.(j) <- ti
    end
  done;
  let stages = Array.length t.stage_wr in
  for s = 0 to stages - 1 do
    let half = 1 lsl s in
    let len = half * 2 in
    let wr = t.stage_wr.(s) and wi = t.stage_wi.(s) in
    let i = ref 0 in
    while !i < n do
      for k = 0 to half - 1 do
        let a = !i + k and b = !i + k + half in
        let twr = wr.(k) and twi = if sign < 0 then wi.(k) else -.wi.(k) in
        let tr = (twr *. re.(b)) -. (twi *. im.(b)) in
        let ti = (twr *. im.(b)) +. (twi *. re.(b)) in
        re.(b) <- re.(a) -. tr;
        im.(b) <- im.(a) -. ti;
        re.(a) <- re.(a) +. tr;
        im.(a) <- im.(a) +. ti
      done;
      i := !i + len
    done
  done

let check_strided name n (x : float array) ~off ~stride =
  if off < 0 || stride < 1 || off + ((n - 1) * stride) >= Array.length x then
    invalid_arg (name ^ ": data out of bounds")

(* Unnormalized DCT-II via the plan (Makhoul's even/odd permutation), in
   place on the n values x.(off + k * stride): every input is read into the
   scratch [re] before any output is written. [re]/[im] are caller-provided
   scratch of length at least n. *)
let dct2_raw t (x : float array) ~off ~stride (re : float array) (im : float array) =
  let n = t.n in
  check_strided "Plan.dct2_raw" n x ~off ~stride;
  let half = (n + 1) / 2 in
  Array.fill im 0 n 0.0;
  for j = 0 to half - 1 do
    re.(j) <- x.(off + (2 * j * stride))
  done;
  for j = 0 to (n / 2) - 1 do
    re.(n - 1 - j) <- x.(off + (((2 * j) + 1) * stride))
  done;
  fft t ~sign:(-1) re im;
  for k = 0 to n - 1 do
    x.(off + (k * stride)) <- (re.(k) *. t.twist_c.(k)) +. (im.(k) *. t.twist_s.(k))
  done

(* Exact inverse of [dct2_raw], same calling convention. *)
let idct2_raw t (c : float array) ~off ~stride (re : float array) (im : float array) =
  let n = t.n in
  check_strided "Plan.idct2_raw" n c ~off ~stride;
  re.(0) <- c.(off);
  im.(0) <- 0.0;
  (* Rebuild the spectrum V_k = (c_k - i c_{n-k}) exp(+i pi k / 2n). *)
  for k = 1 to n - 1 do
    let wr = c.(off + (k * stride)) and wi = -.c.(off + ((n - k) * stride)) in
    re.(k) <- (wr *. t.twist_c.(k)) -. (wi *. t.twist_s.(k));
    im.(k) <- (wr *. t.twist_s.(k)) +. (wi *. t.twist_c.(k))
  done;
  fft t ~sign:1 re im;
  let inv = 1.0 /. float_of_int n in
  let half = (n + 1) / 2 in
  for j = 0 to half - 1 do
    c.(off + (2 * j * stride)) <- re.(j) *. inv
  done;
  for j = 0 to (n / 2) - 1 do
    c.(off + (((2 * j) + 1) * stride)) <- re.(n - 1 - j) *. inv
  done
