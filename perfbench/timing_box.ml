(* A pass-through black box that times every call into the solver's box.

   The extraction layers see an ordinary [Blackbox.t]; each [apply] or
   [apply_batch] is forwarded unchanged to the inner box, so solves,
   health reports and responses are the inner box's own. The wrapper is
   built with [~count_total:false] and only adds the wall time spent
   inside the inner box, which is what separates solver time from
   sparsification time. Extraction calls the box from one domain only
   (parallelism happens inside [apply_batch]), so plain mutable fields
   suffice. *)

(* Monotonic seconds; every interval the benchmark reports uses it. *)
let now () = Int64.to_float (Trace.now_ns ()) *. 1e-9

type stats = { mutable busy_s : float; mutable calls : int }

let wrap inner =
  let st = { busy_s = 0.0; calls = 0 } in
  let timed f =
    let t0 = now () in
    let r = f () in
    st.busy_s <- st.busy_s +. (now () -. t0);
    st.calls <- st.calls + 1;
    r
  in
  let box =
    Substrate.Blackbox.make_batch ~count_total:false ~n:(Substrate.Blackbox.n inner)
      ~batch:(fun ~jobs vs -> timed (fun () -> Substrate.Blackbox.apply_batch ~jobs inner vs))
      (fun v -> timed (fun () -> Substrate.Blackbox.apply inner v))
  in
  (box, st)
