(** Value Change Dump (VCD) waveform output for the circuit simulator.

    Developers pinpoint reported transient-execution bugs from simulation
    waveforms (§7: "developers usually only need simulation waveform files
    to pinpoint bugs"); this writer produces standard IEEE 1364 VCD that any
    waveform viewer opens.  Every named signal is dumped, grouped into
    scopes by its module tag; unnamed intermediate cells are omitted. *)

val dump_simulation :
  ?engine:Sim.engine ->
  Netlist.t -> cycles:int -> drive:(Sim.t -> int -> unit) -> string
(** Convenience: simulate [cycles] cycles of a fresh {!Sim} (built with
    [engine], default [`Compiled]), calling [drive sim cycle] before each
    evaluation, and return the VCD text.  Both engines produce identical
    waveforms. *)
