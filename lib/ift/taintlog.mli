(** A taint-log bound with no reader.

    The dual-core testbench keeps no per-slot taint log any more (Figure 6
    steps its own testbench).  This type stays only because [bench/e2e]'s
    replay names it and passes it to the two functions that still accept
    and ignore a [?log_bound], [Dejavuzz.Simpool.acquire] and
    [Dejavuzz.Oracle.analyze].  All three go when that replay
    ([resim.ml], [traced.ml]) is retired. *)

type bound =
  | Unbounded
  | Keep_last of int
