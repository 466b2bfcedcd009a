(** Memory flattening.

    CellIFT instruments at the cell level and must flatten every memory
    into discrete registers with read multiplexer trees and write decoders
    (§6.3: "Since CellIFT instruments at the cell level, it requires
    flattening all memory, resulting in a significantly increased
    compilation time").  This pass reproduces that transformation — and its
    cost — on {!Netlist} designs; diffIFT instruments at the RTL IR level
    and skips it. *)

val flatten : Netlist.t -> Netlist.t
(** Returns an equivalent netlist in which every memory is expanded into
    per-word registers, one-hot write-enable decoders and word-select read
    multiplexer chains.  Signal handles of the original netlist are {e not}
    valid in the result; use {!flatten_with_map} to translate. *)

val flatten_with_map :
  Netlist.t -> Netlist.t * (Netlist.signal -> Netlist.signal)
(** Like {!flatten} but also returns the old-signal → new-signal mapping
    for inputs, registers and all combinational outputs. *)
