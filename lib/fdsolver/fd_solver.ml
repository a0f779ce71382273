module Blackbox = Substrate.Blackbox
module Layout = Geometry.Layout
module Contact = Geometry.Contact

(* Finite-difference substrate solver (thesis §2.2).

   Given contact voltages, the grid Laplacian system is solved with
   preconditioned conjugate gradients and the contact currents are recovered
   from Ohm's law at the contact nodes. The preconditioner choices reproduce
   the study of Table 2.1: incomplete Cholesky (ICCG), and the fast Poisson
   solver with a uniform top boundary coupling scaled by a Dirichlet
   fraction p — p = 1 pure-Dirichlet, p = 0 pure-Neumann, and p = contact
   area fraction for the area-weighted preconditioner that works best. *)

type preconditioner =
  | No_preconditioner
  | Ic0
  | Fast_poisson of float  (* Dirichlet fraction p in [0, 1] *)
  | Multigrid  (* one V-cycle per application (§2.2.2's suggested direction) *)

type t = {
  grid : Grid.t;
  precond : (float array -> float array) option;
  tol : float;
  max_iter : int;
  stats : La.Krylov.stats;
  stats_mutex : Mutex.t;
      (* solves run concurrently under a Resilient batch; each counts into
         a private record merged into [stats] under this mutex *)
  health : Substrate.Health.t;
  n_contacts : int;
}

(* The two halves of a PCG iteration, so a trace summary shows the split. *)
let stencil_span = "fd.stencil"
let poisson_span = "poisson.solve"

(* Fraction of the top surface covered by contacts — the area-weighted
   Dirichlet fraction of thesis §2.2.2. *)
let area_fraction (layout : Layout.t) =
  let total = Array.fold_left (fun acc c -> acc +. Contact.area c) 0.0 layout.Layout.contacts in
  total /. (layout.Layout.size *. layout.Layout.size)

let zero_fixed grid (v : float array) =
  (* In the Inside placement the contact nodes are not unknowns; reduced-
     system vectors carry zeros there. *)
  if grid.Grid.placement = Grid.Inside then
    Array.iter (Array.iter (fun k -> v.(k) <- 0.0)) grid.Grid.contact_nodes;
  v

let build_preconditioner ~profile ~layout ~nx ~nz grid = function
  | Multigrid ->
    let mg = Multigrid.create ~placement:grid.Grid.placement profile layout ~nx ~nz in
    Some (fun r -> zero_fixed grid (Multigrid.v_cycle mg r))
  | No_preconditioner -> None
  | Ic0 ->
    let reduce =
      if grid.Grid.placement = Grid.Inside then fun i -> grid.Grid.is_contact_node.(i) else fun _ -> false
    in
    let factor = Sparsemat.Ic0.factor (Grid.to_csr ~reduce grid) in
    Some (fun r -> zero_fixed grid (Sparsemat.Ic0.apply factor r))
  | Fast_poisson p ->
    let fast =
      Transforms.Poisson.create ~gz:grid.Grid.gz ~nx:grid.Grid.nx ~ny:grid.Grid.ny ~nz:grid.Grid.nz
        ~h:grid.Grid.h ~sigma:grid.Grid.sigma_plane ~top_fraction:p
        ~bottom_contact:(grid.Grid.g_backplane > 0.0) ()
    in
    Some
      (fun r ->
        zero_fixed grid (Trace.with_span poisson_span (fun () -> Transforms.Poisson.solve fast r)))

let create ?placement ?(precond = Fast_poisson 1.0) ?(tol = 1e-9) ?(max_iter = 5000) profile layout ~nx ~nz =
  let grid = Grid.create ?placement profile layout ~nx ~nz in
  {
    grid;
    precond = build_preconditioner ~profile ~layout ~nx ~nz grid precond;
    tol;
    max_iter;
    stats = La.Krylov.make_stats ();
    stats_mutex = Mutex.create ();
    health = Substrate.Health.create ();
    n_contacts = Array.length layout.Layout.contacts;
  }

(* Escalation handle: same grid and preconditioner, tighter CG settings,
   private stats/health — cheap, nothing is re-discretized or refactored.
   Preconditioner *changes* need a fresh [create] (or [Direct_solver]). *)
let with_tolerance ?tol ?max_iter t =
  {
    t with
    tol = Option.value tol ~default:t.tol;
    max_iter = Option.value max_iter ~default:t.max_iter;
    stats = La.Krylov.make_stats ();
    stats_mutex = Mutex.create ();
    health = Substrate.Health.create ();
  }

let grid t = t.grid
let stats t = t.stats

(* Run one PCG solve with distinct logging for breakdown vs plain
   non-convergence, and publish the per-solve quality report. *)
let run_cg t ~apply b =
  let t0 = Substrate.Health.now () in
  let stats = La.Krylov.make_stats () in
  let result = La.Krylov.cg ?precond:t.precond ~apply ~tol:t.tol ~max_iter:t.max_iter ~stats b in
  let wall = Substrate.Health.now () -. t0 in
  Mutex.protect t.stats_mutex (fun () -> La.Krylov.merge_stats ~into:t.stats stats);
  if result.La.Krylov.breakdown then
    Logs.warn (fun m ->
        m "fd solve: CG breakdown on a non-positive-definite direction (true residual %.2e after %d iterations%s%s)"
          result.La.Krylov.residual_norm result.La.Krylov.iterations
          (if result.La.Krylov.converged then ", accepted at relaxed threshold" else "")
          (if result.La.Krylov.residual_mismatch then ", recurrence residual off by >10x" else ""))
  else if not result.La.Krylov.converged then
    Logs.warn (fun m ->
        m "fd solve: CG not converged (true residual %.2e after %d iterations%s)"
          result.La.Krylov.residual_norm result.La.Krylov.iterations
          (if result.La.Krylov.residual_mismatch then ", recurrence residual off by >10x" else ""));
  Blackbox.report_solve t.health
    {
      Substrate.Health.converged = result.La.Krylov.converged;
      breakdown = result.La.Krylov.breakdown;
      residual = result.La.Krylov.residual_norm;
      iterations = result.La.Krylov.iterations;
      wall_s = wall;
      finite = true;  (* the box wrapper completes the NaN/Inf scan *)
    };
  result

(* Net current out of a grid node given the full voltage field. *)
let node_current grid (v : float array) i =
  let nx = grid.Grid.nx and ny = grid.Grid.ny in
  let ix = i mod nx and iy = i / nx mod ny and iz = i / (nx * ny) in
  let acc = ref 0.0 in
  let extra =
    Grid.fold_neighbors grid ~ix ~iy ~iz (fun ~neighbor ~g -> acc := !acc +. (g *. (v.(i) -. v.(neighbor))))
  in
  !acc +. (extra *. v.(i))

let solve_inside t (u : La.Vec.t) : La.Vec.t =
  let grid = t.grid in
  let n = Grid.node_count grid in
  (* Extension of the contact voltages by zero. *)
  let v_fix = Array.make n 0.0 in
  Array.iteri (fun c nodes -> Array.iter (fun k -> v_fix.(k) <- u.(c)) nodes) grid.Grid.contact_nodes;
  (* Reduced system A_ff x = -A v_fix. *)
  let b = zero_fixed grid (Array.map (fun x -> -.x) (Grid.apply grid v_fix)) in
  (* One output buffer for the whole solve: CG consumes each apply result
     before the next call (the Krylov contract), so the closure may hand
     back the same array every iteration. *)
  let buf = Array.make n 0.0 in
  let apply v =
    Trace.with_span stencil_span (fun () -> Grid.apply_into grid ~src:v ~dst:buf);
    zero_fixed grid buf
  in
  let result = run_cg t ~apply b in
  let v = La.Vec.add v_fix result.La.Krylov.x in
  Array.map
    (fun nodes -> Array.fold_left (fun acc k -> acc +. node_current grid v k) 0.0 nodes)
    grid.Grid.contact_nodes

let solve_outside t (u : La.Vec.t) : La.Vec.t =
  let grid = t.grid in
  let n = Grid.node_count grid in
  (* The eliminated Dirichlet nodes above the contacts feed g_c * u into
     their top-plane neighbors. *)
  let b = Array.make n 0.0 in
  Array.iteri
    (fun c nodes -> Array.iter (fun k -> b.(k) <- grid.Grid.g_contact *. u.(c)) nodes)
    grid.Grid.contact_nodes;
  (* Same per-solve buffer reuse as [solve_inside]. *)
  let buf = Array.make n 0.0 in
  let apply v =
    Trace.with_span stencil_span (fun () -> Grid.apply_into grid ~src:v ~dst:buf);
    buf
  in
  let result = run_cg t ~apply b in
  let v = result.La.Krylov.x in
  (* Current through each contact's Dirichlet resistors. *)
  Array.mapi
    (fun c nodes ->
      Array.fold_left (fun acc k -> acc +. (grid.Grid.g_contact *. (u.(c) -. v.(k)))) 0.0 nodes)
    grid.Grid.contact_nodes

let solve t (u : La.Vec.t) : La.Vec.t =
  if Array.length u <> t.n_contacts then invalid_arg "Fd_solver.solve: contact count mismatch";
  match t.grid.Grid.placement with
  | Grid.Inside -> solve_inside t u
  | Grid.Outside -> solve_outside t u

let blackbox t = Blackbox.make ~health:t.health ~n:t.n_contacts (solve t)
