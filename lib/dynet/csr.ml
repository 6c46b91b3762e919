open Ops

(* Compressed sparse rows over a round graph's adjacency: one flat
   [neighbors] array indexed by [offsets], rebuilt only when the round
   graph actually changed.  [Graph] already keeps per-node rows; the
   CSR flattens them into one allocation-stable buffer so the engine's
   per-edge loop walks contiguous memory with no per-node array loads
   and no per-round allocation on stable rounds.

   The rebuild gate is the caller's: the engine already knows from its
   topological-change accounting whether the round's edge set differs
   from the last one, so the CSR takes that answer instead of walking
   the keys again.  Only a round whose edge set changed (and the first
   update) pays the O(n + m) repack, into buffers reused across
   rounds, grown geometrically. *)

type t = {
  n : int;
  offsets : int array;
  (* n + 1 entries; row v is neighbors.(offsets.(v)) .. exclusive end. *)
  mutable neighbors : int array;
  mutable m2 : int;
  (* directed entry count currently packed = 2 * edges *)
  mutable rebuilds : int;
}

let create ~n =
  if n < 0 then invalid_arg "Csr.create: negative n";
  { n; offsets = Array.make (n + 1) 0; neighbors = [||]; m2 = 0; rebuilds = 0 }

let n t = t.n
let entries t = t.m2
let rebuilds t = t.rebuilds

(* Rows are short (the mean degree), so a plain copy loop beats one
   [caml_array_blit] call per row. *)
let rebuild t g =
  let m2 = 2 * Graph.edge_count g in
  if Array.length t.neighbors < m2 then
    t.neighbors <- Array.make (max m2 (2 * Array.length t.neighbors)) 0;
  let dst = t.neighbors in
  let off = ref 0 in
  for v = 0 to t.n - 1 do
    t.offsets.(v) <- !off;
    let row = Graph.neighbors g v in
    let o = !off in
    for i = 0 to Array.length row - 1 do
      dst.(o + i) <- row.(i)
    done;
    off := o + Array.length row
  done;
  t.offsets.(t.n) <- !off;
  t.m2 <- m2;
  t.rebuilds <- t.rebuilds + 1

let update t g ~changed =
  if Graph.n g <> t.n then
    invalid_arg
      (Printf.sprintf "Csr.update: graph has n = %d, csr has n = %d"
         (Graph.n g) t.n);
  let repack = changed || t.rebuilds = 0 in
  if repack then rebuild t g;
  repack

let row_start t v = t.offsets.(v) [@@dynlint.hot]
let row_stop t v = t.offsets.(v + 1) [@@dynlint.hot]
let degree t v = t.offsets.(v + 1) - t.offsets.(v) [@@dynlint.hot]

let neighbor t i = Array.unsafe_get t.neighbors i
[@@dynlint.hot]
[@@dynlint.unsafe_ok "caller contract: i lies in [row_start v, row_stop v) \
                      of the same rebuild, and offsets end at the length \
                      of neighbors"]

let iter_row t v f =
  for i = t.offsets.(v) to t.offsets.(v + 1) - 1 do
    f (Array.unsafe_get t.neighbors i)
  done
[@@dynlint.hot]
