module Profile = Substrate.Profile
module Blackbox = Substrate.Blackbox
(* Eigenfunction-based (surface-variable) substrate solver
   (thesis §2.3.1, Fig 2-6).

   The current-density-to-potential operator is applied by zero-padding the
   contact-panel densities onto the full panel grid, taking a 2-D DCT into
   the cosine eigenbasis, scaling by the eigenvalues, and transforming back —
   exactly the pipeline of Fig 2-6. Because the orthonormal DCT is
   orthogonal and the eigenvalues positive, the restricted operator A_cc is
   symmetric positive definite, and given contact voltages the panel current
   densities are found by conjugate gradients on

       A_cc rho = F v          (F expands contact voltages to panels)

   after which contact currents are I = panel_area * F' rho and therefore
   G = panel_area * F' A_cc^{-1} F — symmetric, as §2.4 requires. *)

(* Preconditioner for the contact-panel system (thesis §2.3.1,
   '"Fast-solver" preconditioner?'): invert the *full-surface* operator by
   reversing every arrow of Fig 2-6 — zero-padding in place of the
   non-invertible "lifting" step — then restrict back to the contact panels.
   The thesis found this unpromising because the preconditioner disagrees
   with the true operator on the (large) non-contact surface; the
   reproduction confirms it. *)
type preconditioner = No_preconditioner | Fast_inverse

type t = {
  profile : Profile.t;
  panel : Panel.t;
  lambdas : float array;  (* mode eigenvalues, m-fastest *)
  precond : preconditioner;
  tol : float;
  max_iter : int;
  stats : La.Krylov.stats;
  health : Substrate.Health.t;
}

(* Galerkin correction for piecewise-constant panels (the precorrected-DCT
   operator of Costa/Chou/Silveira that the thesis's solver family uses):
   the cosine-mode coefficient of a uniform panel is its center sample times
   sinc(m pi / 2P), so the exact panel-averaged operator is the DCT
   conjugation with eigenvalues damped by sinc^2 in each direction. *)
let sinc t = if Float.abs t < 1e-12 then 1.0 else sin t /. t

let create ?(tol = 1e-9) ?(max_iter = 2000) ?(precond = No_preconditioner) ?(galerkin = false) profile
    layout ~panels_per_side =
  if not (Float.equal profile.Profile.a profile.Profile.b) then
    invalid_arg "Eig_solver.create: square surface required";
  if not (Float.equal profile.Profile.a layout.Geometry.Layout.size) then
    invalid_arg "Eig_solver.create: layout and profile surface extents differ";
  let panel = Panel.create layout ~panels_per_side in
  let p = panels_per_side in
  let lambdas = Eigenvalues.table profile ~p in
  let lambdas =
    if galerkin then
      Array.mapi
        (fun k lambda ->
          let m = k mod p and n = k / p in
          let sm = sinc (Float.pi *. float_of_int m /. (2.0 *. float_of_int p)) in
          let sn = sinc (Float.pi *. float_of_int n /. (2.0 *. float_of_int p)) in
          lambda *. sm *. sm *. sn *. sn)
        lambdas
    else lambdas
  in
  {
    profile;
    panel;
    lambdas;
    precond;
    tol;
    max_iter;
    stats = La.Krylov.make_stats ();
    health = Substrate.Health.create ();
  }

(* Escalation handle: same panel tables and eigenvalue table, tighter CG
   settings, private stats/health. Cheap — nothing is re-discretized — so a
   retry ladder can stack several of these. *)
let with_tolerance ?tol ?max_iter t =
  {
    t with
    tol = Option.value tol ~default:t.tol;
    max_iter = Option.value max_iter ~default:t.max_iter;
    stats = La.Krylov.make_stats ();
    health = Substrate.Health.create ();
  }

let panel_count t = t.panel |> Panel.n_dofs
let stats t = t.stats

let panels_per_side t = int_of_float (sqrt (float_of_int (Array.length t.lambdas)))

(* Fig 2-6 on a full-grid array, in place: forward DCT, scale each mode
   by its eigenvalue ([Multiply]) or by its inverse ([Divide]), inverse
   DCT. *)
type scaling = Multiply | Divide

let conjugate_in_place t scaling (grid : float array) =
  if Array.length grid <> Array.length t.lambdas then
    invalid_arg "Eig_solver: panel grid length mismatch";
  let p = panels_per_side t in
  Transforms.Dct.dct_ii_planes ~nx:p ~ny:p grid;
  (match scaling with
  | Multiply ->
    for k = 0 to Array.length grid - 1 do
      grid.(k) <- t.lambdas.(k) *. grid.(k)
    done
  | Divide ->
    for k = 0 to Array.length grid - 1 do
      grid.(k) <- grid.(k) /. t.lambdas.(k)
    done);
  Transforms.Dct.dct_iii_planes ~nx:p ~ny:p grid

(* Apply the full-surface operator A: panel current densities (full grid) to
   panel potentials (full grid). *)
let apply_operator t (density : float array) : float array =
  let grid = Array.copy density in
  conjugate_in_place t Multiply grid;
  grid

(* The restricted SPD operator A_cc on packed contact-panel dofs; the
   scattered grid is private, so the whole pipeline runs in it. *)
let apply_restricted t (rho : La.Vec.t) : La.Vec.t =
  let grid = Panel.scatter t.panel rho in
  conjugate_in_place t Multiply grid;
  Panel.gather t.panel grid

(* Apply the inverse of the full-surface operator, restricted: the
   fast-solver preconditioner candidate. *)
let apply_inverse_restricted t (r : La.Vec.t) : La.Vec.t =
  let grid = Panel.scatter t.panel r in
  conjugate_in_place t Divide grid;
  Panel.gather t.panel grid

(* One black-box solve: contact voltages to contact currents. [stats]
   designates the iteration-stats record to update — the solver's own by
   default; batched solves pass a private record per right-hand side so
   concurrent CG runs never share mutable state. *)
let solve_into ~stats t (v : La.Vec.t) : La.Vec.t =
  let rhs = Panel.expand_contacts t.panel v in
  let precond =
    match t.precond with
    | No_preconditioner -> None
    | Fast_inverse -> Some (apply_inverse_restricted t)
  in
  let t0 = Substrate.Health.now () in
  let result =
    La.Krylov.cg ?precond ~apply:(apply_restricted t) ~tol:t.tol ~max_iter:t.max_iter ~stats rhs
  in
  let wall = Substrate.Health.now () -. t0 in
  if result.La.Krylov.breakdown then
    Logs.warn (fun m ->
        m
          "eigenfunction solve: CG breakdown on a non-positive-definite direction (true residual \
           %.2e after %d iterations%s%s)"
          result.La.Krylov.residual_norm result.La.Krylov.iterations
          (if result.La.Krylov.converged then ", accepted at relaxed threshold" else "")
          (if result.La.Krylov.residual_mismatch then ", recurrence residual off by >10x" else ""))
  else if not result.La.Krylov.converged then
    Logs.warn (fun m ->
        m "eigenfunction solve: CG not converged (true residual %.2e after %d iterations%s)"
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
  La.Vec.scale (Panel.panel_area t.panel) (Panel.sum_per_contact t.panel result.La.Krylov.x)

let solve t v = solve_into ~stats:t.stats t v

(* Batched solves across a domain pool. Everything a CG run touches is
   either immutable after [create] (panel tables, eigenvalue table, cached
   DCT plans — pre-built below so no domain hits the plan cache's write
   path) or cloned per right-hand side (CG work vectors are allocated inside
   [Krylov.cg]; iteration stats get a private record each, merged into
   [t.stats] once the batch completes). Responses land in input order, so
   the result is bit-identical to the sequential loop. *)
let solve_batch ?(jobs = Parallel.Pool.default_jobs ()) t (vs : La.Vec.t array) : La.Vec.t array =
  if jobs <= 1 || Array.length vs <= 1 then Array.map (solve t) vs
  else begin
    ignore (Transforms.Plan.get (panels_per_side t));
    let stats = Array.init (Array.length vs) (fun _ -> La.Krylov.make_stats ()) in
    let out =
      Parallel.Pool.with_pool ~jobs (fun pool ->
          Parallel.Pool.map_chunks pool
            (fun i -> solve_into ~stats:stats.(i) t vs.(i))
            (Array.init (Array.length vs) Fun.id))
    in
    Array.iter (fun s -> La.Krylov.merge_stats ~into:t.stats s) stats;
    out
  end

let blackbox t =
  Blackbox.make_batch ~health:t.health
    ~n:(Panel.n_contacts t.panel)
    ~batch:(fun ~jobs vs -> solve_batch ~jobs t vs)
    (solve t)
