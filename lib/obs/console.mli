(** Human-facing console output for executables.

    Libraries never print (dynlint's direct-print rule); executables
    route output through here instead of raw [print_*]/[prerr_*], so
    every line has one exit point.  Results go to stdout via {!out};
    diagnostics go to stderr via {!error} and {!note}. *)

val out : string -> unit
(** Write one line to stdout, flushed.  This is the results channel —
    tables, JSON reports, CSV rows. *)

val error : string -> unit
(** Write one line to stderr, flushed. *)

val note : string -> unit
(** Same as {!error}, for usage text and progress remarks. *)

val lines : string list -> unit
(** [note] each line in order. *)
