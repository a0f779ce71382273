(* Bit-pattern comparison of floats. Served answers must equal in-process
   answers to the last bit, so comparisons go through the IEEE-754
   encoding: NaN equals a NaN with the same payload, and -0.0 differs
   from 0.0 — both exactly the cases [Float.equal] and [=] get wrong for
   this purpose. *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_vector (a : float array) (b : float array) =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (same_float a.(i) b.(i) && go (i + 1)) in
  go 0

let same_vectors (a : float array array) (b : float array array) =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (same_vector a.(i) b.(i) && go (i + 1)) in
  go 0

(* MD5 over the exact bit patterns, lengths included: two digests agree iff
   every component agrees to the last bit. *)
let digest (vs : float array array) =
  let b = Buffer.create 4096 in
  Buffer.add_int64_le b (Int64.of_int (Array.length vs));
  Array.iter
    (fun v ->
      Buffer.add_int64_le b (Int64.of_int (Array.length v));
      Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) v)
    vs;
  Digest.to_hex (Digest.string (Buffer.contents b))
