(** Re-render a saved JSONL campaign event log.

    A campaign run with [--telemetry FILE] leaves a complete structured
    record of the run; this module reconstructs the end-of-run human
    summary from the event log alone, so saved runs stay inspectable
    after the fact — the [dejavuzz replay-log] subcommand.  It only
    parses: the scalars and findings it reads go to
    {!Report.render_summary}, the renderer behind {!Report.summary}, so
    the text is identical by construction. *)

val of_string : string -> (string, string) result
(** Parses JSONL text and rebuilds the summary.  Requires one
    [campaign_end] record (the last one wins, so logs holding several
    sequential campaigns replay the final one) and uses every [finding]
    record preceding it.  When the log also holds the campaign's
    [campaign_start] record, the Table-5 classification block the CLI
    prints after the summary is appended as well.  Errors name the
    missing piece or the unparsable line. *)

val of_file : string -> (string, string) result
(** {!of_string} on a file's contents. *)
