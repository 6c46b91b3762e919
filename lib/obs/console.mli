(** Human-facing console output for executables.

    Libraries never print (dynlint's direct-print rule); executables
    route output through here instead of raw [print_*]/[prerr_*], so
    every line has one exit point.  Results go to stdout via {!out};
    diagnostics, usage text and progress remarks go to stderr via
    {!error}. *)

val out : string -> unit
(** Write one line to stdout, flushed.  This is the results channel —
    tables, JSON reports, CSV rows. *)

val error : string -> unit
(** Write one line to stderr, flushed. *)

val lines : string list -> unit
(** [error] each line in order. *)
