open Dynet.Ops

(* NDJSON framing for dynspread-rpc/v1: one JSON object per line, LF
   terminated.  The splitter is incremental — sessions feed whatever
   the socket handed them and get back the complete lines — and
   bounded, so a peer streaming an endless line cannot grow a session
   buffer without limit: the first frame to exceed [default_max_frame]
   is a protocol error and the session is torn down. *)

let default_max_frame = 4 * 1024 * 1024

type splitter = { buf : Buffer.t; mutable poisoned : bool }

let splitter () = { buf = Buffer.create 256; poisoned = false }
let too_long = Printf.sprintf "frame exceeds %d bytes" default_max_frame

(* Strip one optional trailing CR so a telnet/CRLF peer still frames
   correctly; embedded CRs are the frame's own business. *)
let chop_cr line =
  let len = String.length line in
  if len > 0 && Char.equal line.[len - 1] '\r' then String.sub line 0 (len - 1)
  else line

let feed t chunk =
  if t.poisoned then Error "frame splitter already failed"
  else begin
    let lines = ref [] in
    let error = ref None in
    let start = ref 0 in
    let n = String.length chunk in
    (try
       for i = 0 to n - 1 do
         if Char.equal chunk.[i] '\n' then begin
           let tail = String.sub chunk !start (i - !start) in
           let line =
             if Buffer.length t.buf = 0 then tail
             else begin
               Buffer.add_string t.buf tail;
               let l = Buffer.contents t.buf in
               Buffer.clear t.buf;
               l
             end
           in
           if String.length line > default_max_frame then begin
             error := Some too_long;
             raise Exit
           end;
           let line = chop_cr line in
           if String.length line > 0 then lines := line :: !lines;
           start := i + 1
         end
       done
     with Exit -> ());
    match !error with
    | Some e ->
        t.poisoned <- true;
        Error e
    | None ->
        if !start < n then
          Buffer.add_substring t.buf chunk !start (n - !start);
        if Buffer.length t.buf > default_max_frame then begin
          t.poisoned <- true;
          Error too_long
        end
        else Ok (List.rev !lines)
  end

let pending t = Buffer.length t.buf
