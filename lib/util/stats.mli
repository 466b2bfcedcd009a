(** Small statistics helpers used by the benchmark harnesses: means,
    standard deviations and normal-approximation confidence intervals over
    repeated fuzzing trials. *)

val mean : float list -> float
(** Arithmetic mean; 0 for the empty list. *)

val stddev : float list -> float
(** Sample standard deviation (n-1 denominator); 0 for fewer than 2 points. *)

val ci95 : float list -> float * float
(** [ci95 xs] is [(mean, halfwidth)] of the normal-approximation 95%
    confidence interval of the mean. *)

val median : float list -> float
(** Median; 0 for the empty list. *)

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [\[0,1\]], nearest-rank method. *)
