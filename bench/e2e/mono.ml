(* Nanosecond monotonic clock (bechamel's CLOCK_MONOTONIC stub, unboxed
   and allocation-free): per-slot costs are well below the 1 us
   resolution of [Unix.gettimeofday]. *)

let now () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now () - t0) *. 1e-9

(* What one [now] call adds to an interval it closes: the fastest of 50
   batches of 1000 back-to-back reads.  The replay subtracts it from
   every interval it times. *)
let cost =
  lazy
    (let best = ref max_int in
     for _ = 1 to 50 do
       let t0 = now () in
       for _ = 1 to 1000 do
         ignore (Sys.opaque_identity (now ()))
       done;
       best := min !best (now () - t0)
     done;
     !best / 1000)
