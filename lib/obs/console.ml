(* The sanctioned console path for executables.  dynlint's direct-print
   rule bans ad-hoc [print_*]/[prerr_*] everywhere (libraries AND
   executables) so all run output flows through [Sink] or through
   here: [out] is the stdout results channel (tables, JSON reports),
   [error] the stderr diagnostics.  Routing them through one
   exit point keeps them greppable. *)

let emit chan msg =
  output_string chan msg;
  output_char chan '\n';
  flush chan

let out msg = emit stdout msg
let error msg = emit stderr msg
let lines msgs = List.iter error msgs
