(** Fast direct solver for the layered grid-of-resistors Laplacian with
    uniform per-face boundary conditions, used as the fast-solver
    preconditioner of thesis §2.2.2 (Table 2.1). *)

type t

(** [create ~nx ~ny ~nz ~h ~sigma ~top_fraction ~bottom_contact] builds the
    model operator for an [nx * ny * nz] cell-centered grid with spacing [h]
    and per-z-plane conductivities [sigma] (plane 0 is the top surface).
    [top_fraction] scales the uniform Dirichlet coupling on the top face:
    1.0 is the pure-Dirichlet preconditioner, 0.0 pure-Neumann, and the
    contact-area fraction gives the area-weighted preconditioner.
    [bottom_contact] adds a grounded backplane on the bottom face.
    [gz] overrides the vertical resistor conductances (length nz - 1), e.g.
    to match a grid whose vertical resistors were integrated through
    sub-grid layers. *)
val create :
  ?gz:float array ->
  nx:int ->
  ny:int ->
  nz:int ->
  h:float ->
  sigma:float array ->
  top_fraction:float ->
  bottom_contact:bool ->
  unit ->
  t

val index : t -> ix:int -> iy:int -> iz:int -> int
val size : t -> int

(** Apply the model operator (node voltages to node currents). *)
val apply : t -> float array -> float array

(** Direct O(n log n) solve of the model system via 2-D DCT + tridiagonal
    solves. Exact when the operator is nonsingular; with all-Neumann faces the
    constant mode is regularized, giving a usable preconditioner. The first
    call builds the per-mode tridiagonal factors, which later calls reuse;
    after it, a call allocates its result and O(nx + ny) scratch. Safe to
    call from several domains at once on one [t]. *)
val solve : t -> float array -> float array

(** Series conductance of a vertical resistor crossing a layer boundary
    halfway between planes (thesis eq. (2.8) with p = 1/2). *)
val series_conductance : float -> float -> float -> float
