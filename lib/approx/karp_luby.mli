(** The Karp–Luby FPRAS for DNF probability.

    Given a monotone DNF [F = C₁ ∨ ... ∨ C_m] over independent variables —
    exactly the shape of a UCQ's lineage — the estimator samples a clause
    [Cᵢ] with probability proportional to its weight [wᵢ = Π p(v)], then a
    world conditioned on [Cᵢ] being true, and averages [1/N(θ)] where
    [N(θ)] is the number of clauses the world satisfies:

    [p(F) = (Σ wᵢ) · E[1/N]].

    Unlike naive Monte Carlo, the relative error is bounded uniformly,
    giving an FPRAS — the classical answer to #P-hard PQE for UCQs
    mentioned alongside Sec. 6's bounds. *)

type estimate = {
  mean : float;
      (** the estimate of [p(F)], clamped to [0,1] — sampling noise can push
          the raw [Σwᵢ·E[1/N]] just past 1 on near-certain lineage *)
  std_error : float;
  samples : int;
  union_weight : float;  (** Σᵢ wᵢ, an upper bound on p(F) *)
}

val half_width_95 : estimate -> float

val normal_quantile : float -> float
(** Standard normal inverse CDF (Acklam's approximation, error < 1.2e-9).
    Raises [Invalid_argument] outside (0,1). Used to turn a standard error
    into a [(1-δ)]-confidence interval at arbitrary δ. *)

val required_samples : eps:float -> delta:float -> clauses:int -> int
(** [required_samples ~eps ~delta ~clauses] is the classical Karp–Luby
    sample bound [⌈4m·ln(2/δ)/ε²⌉] for an (ε,δ)-approximation of a DNF
    with [m] clauses. Raises [Invalid_argument] on non-positive [eps] or
    [clauses], or [delta] outside (0,1). *)

val confidence_interval : delta:float -> estimate -> float * float
(** [(lo, hi)] — the normal-approximation [(1-δ)]-confidence interval
    around [mean] (itself clamped to [0,1]), clamped to [0,1]; so
    [0 ≤ lo ≤ mean ≤ hi ≤ 1]. *)

val estimate :
  ?seed:int ->
  ?guard:Probdb_guard.Guard.t ->
  samples:int ->
  prob:(int -> float) ->
  int list list ->
  estimate
(** [estimate ~prob clauses]: clauses are positive variable lists. Raises
    [Invalid_argument] on an empty clause list with no clauses... an empty
    DNF has probability 0 and returns the zero estimate; probabilities must
    be standard. [guard] (default {!Probdb_guard.Guard.unlimited}) is
    polled once per sample (site ["kl.sample"]). *)

val batch_size : int
(** Samples per parallel batch in {!estimate_par} (a power of two). *)

val estimate_par :
  ?seed:int ->
  ?guard:Probdb_guard.Guard.t ->
  ?pool:Probdb_par.Par.pool ->
  samples:int ->
  prob:(int -> float) ->
  int list list ->
  estimate
(** Pool-parallel Karp–Luby. Samples are drawn in {!batch_size}-sized
    batches; batch [b] uses the dedicated RNG stream
    [Par.Rng.make ~seed ~stream:b] and partial sums are reduced in batch
    order, so the returned estimate depends only on [(seed, samples)] — it
    is bit-identical for any pool size (though it differs from the
    sequential {!estimate}, which draws one global stream). [guard] polling
    is amortised ({!Probdb_guard.Guard.tick}, site ["kl.sample"]). Without
    [pool] the batches run on the calling domain. *)

val exact_via_sampling_identity : prob:(int -> float) -> int list list -> float
(** [Σ_θ P(θ)·1] via the identity [p(F) = Σᵢ wᵢ · E[1/N]], computed exactly
    by enumerating the variables of the DNF — a slow oracle used in tests
    (≤ 20 variables). *)
