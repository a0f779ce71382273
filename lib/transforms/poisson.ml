(* Fast direct solver for the layered grid-of-resistors Laplacian with
   uniform boundary conditions on each face (thesis §2.2.2,
   "Fast-solver preconditioners").

   The substrate grid is nx x ny x nz, cell-centered, spacing h. In-plane
   resistors in z-plane k have conductance sigma.(k) * h; vertical resistors
   crossing between planes combine the two half-lengths in series
   (thesis eq. (2.8) with the boundary halfway, p = 1/2). Sidewalls are
   Neumann. The top face carries a uniform Dirichlet coupling scaled by
   [top_fraction] (p = 1 pure Dirichlet, p = 0 pure Neumann, and the
   area-weighted intermediate choices of Table 2.1); the bottom face is
   Dirichlet when [bottom_contact] (grounded backplane) and Neumann
   otherwise.

   Because the in-plane coupling in plane k is sigma.(k) * h * (Lx + Ly) with
   the same Neumann Laplacians in every plane, a 2-D DCT-II per plane
   decouples the system into one tridiagonal solve in z per (kx, ky) mode. *)

type t = {
  nx : int;
  ny : int;
  nz : int;
  h : float;
  sigma : float array;  (* per z-plane conductivity, plane 0 = top *)
  gz : float array;  (* vertical resistor conductances, length nz - 1 *)
  g_top : float;  (* extra diagonal on plane 0 from the top Dirichlet coupling *)
  g_bottom : float;  (* extra diagonal on plane nz-1 from a backplane contact *)
  factors : La.Tridiag.factor array option Atomic.t;
      (* one z-system elimination per (kx, ky) mode, index kx + nx * ky;
         built by the first [solve] *)
}

let index t ~ix ~iy ~iz = ix + (t.nx * (iy + (t.ny * iz)))
let size t = t.nx * t.ny * t.nz

(* Series combination of two half-length resistors with conductances
   2 sigma_a h and 2 sigma_b h. *)
let series_conductance h sigma_a sigma_b =
  2.0 *. h *. sigma_a *. sigma_b /. (sigma_a +. sigma_b)

let create ?gz ~nx ~ny ~nz ~h ~sigma ~top_fraction ~bottom_contact () =
  if Array.length sigma <> nz then invalid_arg "Poisson.create: sigma must have one entry per z-plane";
  if nx <= 0 || ny <= 0 || nz <= 0 then invalid_arg "Poisson.create: empty grid";
  if top_fraction < 0.0 || top_fraction > 1.0 then
    invalid_arg "Poisson.create: top_fraction must be in [0, 1]";
  let gz =
    match gz with
    | Some g ->
      if Array.length g <> nz - 1 then invalid_arg "Poisson.create: gz must have nz - 1 entries";
      g
    | None -> Array.init (nz - 1) (fun k -> series_conductance h sigma.(k) sigma.(k + 1))
  in
  (* The eliminated Dirichlet node sits a full spacing h above the top plane
     (first placement choice of Fig 2-4), giving a length-h resistor in the
     top conductivity. *)
  let g_top = top_fraction *. sigma.(0) *. h in
  (* A backplane contact is on the bottom face, half a spacing below the last
     plane: a half-length resistor. *)
  let g_bottom = if bottom_contact then 2.0 *. sigma.(nz - 1) *. h else 0.0 in
  { nx; ny; nz; h; sigma; gz; g_top; g_bottom; factors = Atomic.make None }

(* Apply the model operator M (for testing and for preconditioner
   verification): node currents from node voltages. *)
let apply t (v : float array) : float array =
  if Array.length v <> size t then invalid_arg "Poisson.apply: dimension mismatch";
  let out = Array.make (size t) 0.0 in
  let { nx; ny; nz; h; sigma; gz; g_top; g_bottom; factors = _ } = t in
  for iz = 0 to nz - 1 do
    let g_plane = sigma.(iz) *. h in
    for iy = 0 to ny - 1 do
      for ix = 0 to nx - 1 do
        let i = index t ~ix ~iy ~iz in
        let acc = ref 0.0 in
        let couple g j = acc := !acc +. (g *. (v.(i) -. v.(j))) in
        if ix > 0 then couple g_plane (index t ~ix:(ix - 1) ~iy ~iz);
        if ix < nx - 1 then couple g_plane (index t ~ix:(ix + 1) ~iy ~iz);
        if iy > 0 then couple g_plane (index t ~ix ~iy:(iy - 1) ~iz);
        if iy < ny - 1 then couple g_plane (index t ~ix ~iy:(iy + 1) ~iz);
        if iz > 0 then couple gz.(iz - 1) (index t ~ix ~iy ~iz:(iz - 1));
        if iz < nz - 1 then couple gz.(iz) (index t ~ix ~iy ~iz:(iz + 1));
        if iz = 0 then acc := !acc +. (g_top *. v.(i));
        if iz = nz - 1 then acc := !acc +. (g_bottom *. v.(i));
        out.(i) <- !acc
      done
    done
  done;
  out

(* The z-system of mode (kx, ky) has diagonal
   sigma_k h (lambda_x + lambda_y) plus the vertical and boundary
   conductances, and off-diagonals -gz. When the operator is singular (pure
   Neumann everywhere), the (0,0) mode is regularized with a small diagonal
   shift; the solve is then a valid preconditioner though not an exact
   one. *)
let build_factors t =
  let { nx; ny; nz; h; sigma; gz; g_top; g_bottom; factors = _ } = t in
  (* Exact test: boundary conductances are 0.0 only when the caller asked
     for pure-Neumann walls, which is the one genuinely singular case. *)
  let singular = Float.equal g_top 0.0 && Float.equal g_bottom 0.0 in
  let lx = Array.init nx (fun k -> Dct.neumann_laplacian_eigenvalue ~n:nx ~k) in
  let ly = Array.init ny (fun k -> Dct.neumann_laplacian_eigenvalue ~n:ny ~k) in
  let lower = Array.init nz (fun iz -> if iz > 0 then -.gz.(iz - 1) else 0.0) in
  let upper = Array.init nz (fun iz -> if iz < nz - 1 then -.gz.(iz) else 0.0) in
  let diag = Array.make nz 0.0 in
  Array.init (nx * ny) (fun mode ->
      let kx = mode mod nx and ky = mode / nx in
      for iz = 0 to nz - 1 do
        let d = ref (sigma.(iz) *. h *. (lx.(kx) +. ly.(ky))) in
        if iz > 0 then d := !d +. gz.(iz - 1);
        if iz < nz - 1 then d := !d +. gz.(iz);
        if iz = 0 then d := !d +. g_top;
        if iz = nz - 1 then d := !d +. g_bottom;
        if singular && kx = 0 && ky = 0 then d := !d +. (1e-12 *. sigma.(iz) *. h);
        diag.(iz) <- !d
      done;
      La.Tridiag.factor ~lower ~diag ~upper)

(* Solves from several domains may race to build the tables; each builder
   produces the same tables, and the first one published is kept. *)
let factors t =
  match Atomic.get t.factors with
  | Some f -> f
  | None ->
    let f = build_factors t in
    if Atomic.compare_and_set t.factors None (Some f) then f else Option.get (Atomic.get t.factors)

(* Direct solve M x = b: a 2-D DCT of every z-plane decouples the modes,
   one tridiagonal solve in z per (kx, ky) mode, then the inverse DCT. All
   three steps run in place on one copy of [b]. *)
let solve t (b : float array) : float array =
  if Array.length b <> size t then invalid_arg "Poisson.solve: dimension mismatch";
  let factors = factors t in
  let { nx; ny; _ } = t in
  let x = Array.copy b in
  Dct.dct_ii_planes ~nx ~ny x;
  Array.iteri (fun mode f -> La.Tridiag.solve_factored f ~off:mode ~stride:(nx * ny) x) factors;
  Dct.dct_iii_planes ~nx ~ny x;
  x
