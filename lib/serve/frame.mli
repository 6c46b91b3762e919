(** NDJSON framing for [dynspread-rpc/v1]: one JSON object per line,
    LF terminated (a single trailing CR is tolerated and stripped).
    The splitter is incremental and bounded — the first frame longer
    than {!default_max_frame} bytes poisons the splitter and every
    later [feed] fails, so a session streaming garbage is torn down
    instead of growing an unbounded buffer. *)

type splitter

val default_max_frame : int
(** 4 MiB — far above any spec or rpc frame the protocol produces. *)

val splitter : unit -> splitter
(** A fresh splitter. *)

val feed : splitter -> string -> (string list, string) result
(** Append a chunk of bytes and return the complete frames it closed,
    in arrival order, with empty lines dropped.  [Error] is terminal:
    the splitter saw an overlong frame (or was already poisoned) and
    the session should be closed with the message as diagnostic. *)

val pending : splitter -> int
(** Bytes buffered towards an unterminated frame (diagnostics). *)
