(** Rendering of campaign results: individual findings and the Table 5
    style summary matrix (attack type × transient windows × encoded timing
    components). *)

val finding_to_string : Campaign.finding -> string

val window_group : Seed.trigger_kind -> string
(** Table 5's window-type grouping: "mem-excp", "mispred", "illegal",
    "mem-disamb". *)

val table5 : core_name:string -> Campaign.finding list -> string
(** The discovered-bug summary matrix for one core. *)

val render_summary :
  iterations:int ->
  triggered:int ->
  coverage:int ->
  first_bug:int option ->
  crashes:int ->
  timeouts:int ->
  Campaign.finding list ->
  string
(** The one summary renderer: the header line, a crash/timeout line when
    either count is non-zero, then one {!finding_to_string} line per
    finding.  {!summary} feeds it a run's stats, {!Replay} the scalars
    and findings it parses from an event log. *)

val summary : Campaign.stats -> string
(** One-paragraph campaign summary (coverage, findings, first-bug time). *)
