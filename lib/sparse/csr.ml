(* Compressed sparse row matrices.

   The sparsified conductance representation G ~ Q G_w Q' is applied with
   three CSR matrix-vector products; the sparsity statistics the thesis
   reports (Tables 3.1, 4.1-4.3) are nnz counts of these matrices. *)

type t = {
  rows : int;
  cols : int;
  row_ptr : int array;  (* length rows + 1 *)
  col_idx : int array;  (* length nnz *)
  values : float array;  (* length nnz *)
}

let rows t = t.rows
let cols t = t.cols
let nnz t = Array.length t.values

(* Ratio of total entries to nonzeros; "sparsity" in the thesis's tables. *)
let sparsity_factor t =
  let n = nnz t in
  if n = 0 then infinity else float_of_int t.rows *. float_of_int t.cols /. float_of_int n

let of_coo coo =
  let rows = Coo.rows coo and cols = Coo.cols coo in
  (* Accumulate duplicates in per-row hash tables. *)
  let row_tables = Array.init rows (fun _ -> Hashtbl.create 8) in
  Coo.iter coo (fun i j v ->
      let tbl = row_tables.(i) in
      match Hashtbl.find_opt tbl j with
      | Some old -> Hashtbl.replace tbl j (old +. v)
      | None -> Hashtbl.add tbl j v);
  let row_ptr = Array.make (rows + 1) 0 in
  for i = 0 to rows - 1 do
    (* Exact-zero drop of entries that cancelled during accumulation. *)
    let live =
      Hashtbl.fold (fun _ v acc -> if Float.equal v 0.0 then acc else acc + 1) row_tables.(i) 0
    in
    row_ptr.(i + 1) <- row_ptr.(i) + live
  done;
  let total = row_ptr.(rows) in
  let col_idx = Array.make total 0 and values = Array.make total 0.0 in
  for i = 0 to rows - 1 do
    let cols_of_row =
      Hashtbl.fold
        (fun j v acc -> if Float.equal v 0.0 then acc else (j, v) :: acc)
        row_tables.(i) []
    in
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) cols_of_row in
    List.iteri
      (fun k (j, v) ->
        col_idx.(row_ptr.(i) + k) <- j;
        values.(row_ptr.(i) + k) <- v)
      sorted
  done;
  { rows; cols; row_ptr; col_idx; values }

let of_dense ?(threshold = 0.0) m =
  let coo = Coo.create (La.Mat.rows m) (La.Mat.cols m) in
  for i = 0 to La.Mat.rows m - 1 do
    for j = 0 to La.Mat.cols m - 1 do
      let v = La.Mat.get m i j in
      if Float.abs v > threshold then Coo.add coo i j v
    done
  done;
  of_coo coo

let to_dense t =
  let m = La.Mat.create t.rows t.cols in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      La.Mat.set m i t.col_idx.(k) t.values.(k)
    done
  done;
  m

(* Column indices are in range [0, cols) by construction ([of_coo] builds
   them, [pack] validates them), and [row_ptr] is monotone with
   [row_ptr.(rows) = nnz] — so every unsafe access in the product kernels
   below is bounded once the input vector length is checked on entry. *)

let gemv t (x : La.Vec.t) : La.Vec.t =
  if Array.length x <> t.cols then invalid_arg "Csr.gemv: dimension mismatch";
  let y = Array.make t.rows 0.0 in
  for i = 0 to t.rows - 1 do
    let acc = ref 0.0 in
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      acc :=
        !acc +. (Array.unsafe_get t.values k *. Array.unsafe_get x (Array.unsafe_get t.col_idx k))
    done;
    Array.unsafe_set y i !acc
  done;
  y
[@@lint.hotpath "length x = cols checked on entry; k and col_idx bounded by the CSR invariants"]

let gemv_t t (x : La.Vec.t) : La.Vec.t =
  if Array.length x <> t.rows then invalid_arg "Csr.gemv_t: dimension mismatch";
  let y = Array.make t.cols 0.0 in
  for i = 0 to t.rows - 1 do
    let xi = Array.unsafe_get x i in
    (* Exact-zero skip: purely a work-saving test. *)
    if not (Float.equal xi 0.0) then
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        let j = Array.unsafe_get t.col_idx k in
        Array.unsafe_set y j (Array.unsafe_get y j +. (Array.unsafe_get t.values k *. xi))
      done
  done;
  y
[@@lint.hotpath "length x = rows checked on entry; k and col_idx bounded by the CSR invariants"]

let batch_width_dist = Trace.dist "csr.batch_width"

(* Fused multi-RHS product: ys.(c) = A * xs.(c) for the whole block in ONE
   sweep over the matrix. Each CSR entry is read once per block instead of
   once per column, turning the dominant memory traffic (the matrix) into
   the amortized term. Per column the contributions accumulate in exactly
   the per-row k order of [gemv], so each output column is bit-identical
   to the per-column loop — test/test_sparse.ml asserts this across
   patterns and widths. *)
let apply_batch t (xs : La.Vec.t array) : La.Vec.t array =
  let w = Array.length xs in
  Array.iter
    (fun x -> if Array.length x <> t.cols then invalid_arg "Csr.apply_batch: dimension mismatch")
    xs;
  Trace.with_span "csr.apply_batch" (fun () ->
      Trace.observe batch_width_dist (float_of_int w);
      let ys = Array.init w (fun _ -> Array.make t.rows 0.0) in
      (* Columns are consumed in register-blocked groups of four: the
         group's input pointers and accumulators stay in registers, and the
         row's entries are re-read from L1 across the group passes — one
         sweep over the matrix from memory's point of view. Each column's
         contributions still accumulate in the per-row k order of [gemv],
         so every output column is bit-identical to the per-column loop. *)
      for i = 0 to t.rows - 1 do
        let k0 = Array.unsafe_get t.row_ptr i and k1 = Array.unsafe_get t.row_ptr (i + 1) in
        let c = ref 0 in
        while !c + 4 <= w do
          let x0 = Array.unsafe_get xs !c
          and x1 = Array.unsafe_get xs (!c + 1)
          and x2 = Array.unsafe_get xs (!c + 2)
          and x3 = Array.unsafe_get xs (!c + 3) in
          let a0 = ref 0.0 and a1 = ref 0.0 and a2 = ref 0.0 and a3 = ref 0.0 in
          for k = k0 to k1 - 1 do
            let v = Array.unsafe_get t.values k in
            let j = Array.unsafe_get t.col_idx k in
            a0 := !a0 +. (v *. Array.unsafe_get x0 j);
            a1 := !a1 +. (v *. Array.unsafe_get x1 j);
            a2 := !a2 +. (v *. Array.unsafe_get x2 j);
            a3 := !a3 +. (v *. Array.unsafe_get x3 j)
          done;
          Array.unsafe_set (Array.unsafe_get ys !c) i !a0;
          Array.unsafe_set (Array.unsafe_get ys (!c + 1)) i !a1;
          Array.unsafe_set (Array.unsafe_get ys (!c + 2)) i !a2;
          Array.unsafe_set (Array.unsafe_get ys (!c + 3)) i !a3;
          c := !c + 4
        done;
        while !c < w do
          let x = Array.unsafe_get xs !c in
          let acc = ref 0.0 in
          for k = k0 to k1 - 1 do
            acc := !acc +. (Array.unsafe_get t.values k *. Array.unsafe_get x (Array.unsafe_get t.col_idx k))
          done;
          Array.unsafe_set (Array.unsafe_get ys !c) i !acc;
          incr c
        done
      done;
      ys)
[@@lint.hotpath
  "every xs column length-checked on entry; c < w, i < rows, k and col_idx bounded by the CSR \
   invariants"]

(* Fused transposed product, one matrix sweep for the block. The per-row
   input values are hoisted into [xis] so each CSR entry is read once; the
   exact-zero skip of [gemv_t] is applied per column (it saves work AND
   preserves -0.0 outputs that adding 0.0 would flip to +0.0). Per column
   the scatter order is the (i, k) order of [gemv_t] — bit-identical. *)
let apply_batch_t t (xs : La.Vec.t array) : La.Vec.t array =
  let w = Array.length xs in
  Array.iter
    (fun x ->
      if Array.length x <> t.rows then invalid_arg "Csr.apply_batch_t: dimension mismatch")
    xs;
  Trace.with_span "csr.apply_batch_t" (fun () ->
      Trace.observe batch_width_dist (float_of_int w);
      let ys = Array.init w (fun _ -> Array.make t.cols 0.0) in
      (* Same register-blocked grouping as [apply_batch]; the per-column
         exact-zero skip is kept (and a whole group of zero inputs skips
         the row scan entirely — pure work saving, no additions either way). *)
      for i = 0 to t.rows - 1 do
        let k0 = Array.unsafe_get t.row_ptr i and k1 = Array.unsafe_get t.row_ptr (i + 1) in
        let c = ref 0 in
        while !c + 4 <= w do
          let xi0 = Array.unsafe_get (Array.unsafe_get xs !c) i
          and xi1 = Array.unsafe_get (Array.unsafe_get xs (!c + 1)) i
          and xi2 = Array.unsafe_get (Array.unsafe_get xs (!c + 2)) i
          and xi3 = Array.unsafe_get (Array.unsafe_get xs (!c + 3)) i in
          let z0 = Float.equal xi0 0.0
          and z1 = Float.equal xi1 0.0
          and z2 = Float.equal xi2 0.0
          and z3 = Float.equal xi3 0.0 in
          if not (z0 && z1 && z2 && z3) then begin
            let y0 = Array.unsafe_get ys !c
            and y1 = Array.unsafe_get ys (!c + 1)
            and y2 = Array.unsafe_get ys (!c + 2)
            and y3 = Array.unsafe_get ys (!c + 3) in
            for k = k0 to k1 - 1 do
              let v = Array.unsafe_get t.values k in
              let j = Array.unsafe_get t.col_idx k in
              if not z0 then Array.unsafe_set y0 j (Array.unsafe_get y0 j +. (v *. xi0));
              if not z1 then Array.unsafe_set y1 j (Array.unsafe_get y1 j +. (v *. xi1));
              if not z2 then Array.unsafe_set y2 j (Array.unsafe_get y2 j +. (v *. xi2));
              if not z3 then Array.unsafe_set y3 j (Array.unsafe_get y3 j +. (v *. xi3))
            done
          end;
          c := !c + 4
        done;
        while !c < w do
          let xi = Array.unsafe_get (Array.unsafe_get xs !c) i in
          if not (Float.equal xi 0.0) then begin
            let y = Array.unsafe_get ys !c in
            for k = k0 to k1 - 1 do
              let j = Array.unsafe_get t.col_idx k in
              Array.unsafe_set y j (Array.unsafe_get y j +. (Array.unsafe_get t.values k *. xi))
            done
          end;
          incr c
        done
      done;
      ys)
[@@lint.hotpath
  "every xs column length-checked on entry; c < w, i < rows, k and col_idx bounded by the CSR \
   invariants"]

let transpose t =
  let coo = Coo.create t.cols t.rows in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      Coo.add coo t.col_idx.(k) i t.values.(k)
    done
  done;
  of_coo coo

(* Drop entries with |v| <= threshold. *)
let drop_below t threshold =
  let coo = Coo.create t.rows t.cols in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      if Float.abs t.values.(k) > threshold then Coo.add coo i t.col_idx.(k) t.values.(k)
    done
  done;
  of_coo coo

let max_abs t = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 t.values

let iter t f =
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      f i t.col_idx.(k) t.values.(k)
    done
  done

(* Binary search on a threshold so that dropping entries below it leaves the
   matrix approximately [target] times sparser than the input (thesis §3.7:
   "choosing a threshold t so that the sparsity will be approximately 6 times
   greater"). *)
let threshold_for_sparsity t ~target =
  if target <= 1.0 then 0.0
  else begin
    let goal = int_of_float (float_of_int (nnz t) /. target) in
    let lo = ref 0.0 and hi = ref (max_abs t) in
    for _ = 1 to 60 do
      let mid = 0.5 *. (!lo +. !hi) in
      let kept = ref 0 in
      Array.iter (fun v -> if Float.abs v > mid then incr kept) t.values;
      if !kept > goal then lo := mid else hi := mid
    done;
    !hi
  end

(* Matrix Market coordinate-format export, for interoperability with
   external circuit/EDA tooling. *)
let to_matrix_market ?(comment = "") t oc =
  output_string oc "%%MatrixMarket matrix coordinate real general\n";
  if comment <> "" then Printf.fprintf oc "%% %s\n" comment;
  Printf.fprintf oc "%d %d %d\n" t.rows t.cols (nnz t);
  iter t (fun i j v -> Printf.fprintf oc "%d %d %.17g\n" (i + 1) (j + 1) v)

let of_matrix_market ic =
  let rec header () =
    let line = input_line ic in
    if String.length line > 0 && line.[0] = '%' then header () else line
  in
  let dims = header () in
  let rows, cols, count = Scanf.sscanf dims " %d %d %d" (fun a b c -> (a, b, c)) in
  let coo = Coo.create rows cols in
  for _ = 1 to count do
    let line = input_line ic in
    let i, j, v = Scanf.sscanf line " %d %d %f" (fun a b c -> (a, b, c)) in
    Coo.add coo (i - 1) (j - 1) v
  done;
  of_coo coo

(* Build from raw CSR arrays, validating every structural invariant; the
   operator-artifact loader funnels untrusted file contents through here so
   a damaged file is rejected instead of producing out-of-bounds reads. *)
let pack ~rows ~cols ~row_ptr ~col_idx ~values =
  if rows < 0 || cols < 0 then invalid_arg "Csr.pack: negative dimensions";
  if Array.length row_ptr <> rows + 1 then
    invalid_arg
      (Printf.sprintf "Csr.pack: row_ptr has %d entries, want rows + 1 = %d" (Array.length row_ptr)
         (rows + 1));
  let count = Array.length values in
  if Array.length col_idx <> count then
    invalid_arg
      (Printf.sprintf "Csr.pack: col_idx has %d entries but values has %d" (Array.length col_idx)
         count);
  if row_ptr.(0) <> 0 then invalid_arg "Csr.pack: row_ptr must start at 0";
  if row_ptr.(rows) <> count then
    invalid_arg
      (Printf.sprintf "Csr.pack: row_ptr ends at %d but there are %d stored entries" row_ptr.(rows)
         count);
  for i = 0 to rows - 1 do
    if row_ptr.(i + 1) < row_ptr.(i) then
      invalid_arg (Printf.sprintf "Csr.pack: row_ptr decreases at row %d" i)
  done;
  Array.iter
    (fun j ->
      if j < 0 || j >= cols then
        invalid_arg (Printf.sprintf "Csr.pack: column index %d out of range [0, %d)" j cols))
    col_idx;
  {
    rows;
    cols;
    row_ptr = Array.copy row_ptr;
    col_idx = Array.copy col_idx;
    values = Array.copy values;
  }

let unpack t = (Array.copy t.row_ptr, Array.copy t.col_idx, Array.copy t.values)

(* Visit the entries of one row. *)
let iter_row t i f =
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    f t.col_idx.(k) t.values.(k)
  done
