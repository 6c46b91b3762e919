open Ops

(* Word planes: [rows] packed bitsets of [width] bits each, stored in
   one contiguous Bigarray of native ints, node-major.  The packing is
   Bitset's (62 usable bits per word, every word a non-negative
   immediate), so rows and Bitset values exchange whole words with
   [Bitset.load_word]/[Bitset.store_word] and no re-shifting.

   Bigarray int elements are unboxed native words: reads and writes in
   the accessors below allocate nothing, which is what lets an engine
   round loop over a plane run allocation-free.  Rows occupy whole
   words and never share a word with a neighboring row, so two Domains
   writing to different rows never touch the same memory word. *)

let bpw = Bitset.bpw

type t = {
  data : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  rows : int;
  width : int;
  wpr : int;
}

let create ~rows ~width =
  if rows < 0 then invalid_arg "Plane.create: negative rows";
  if width < 0 then invalid_arg "Plane.create: negative width";
  let wpr = (width + bpw - 1) / bpw in
  let data =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 1 (rows * wpr))
  in
  Bigarray.Array1.fill data 0;
  { data; rows; width; wpr }

let check_row t r op =
  if r < 0 || r >= t.rows then
    invalid_arg
      (Printf.sprintf "Plane.%s: row %d out of range (rows=%d)" op r t.rows)

let check_bit t i op =
  if i < 0 || i >= t.width then
    invalid_arg
      (Printf.sprintf "Plane.%s: bit %d out of range (width=%d)" op i t.width)

(* Hot-path accessors: row/bit arithmetic is explicit and the Bigarray
   access is unsafe once our own range check has passed. *)

let mem t r i =
  check_row t r "mem";
  check_bit t i "mem";
  Bigarray.Array1.unsafe_get t.data ((r * t.wpr) + (i / bpw))
  land (1 lsl (i mod bpw))
  <> 0
[@@dynlint.hot]

let set t r i =
  check_row t r "set";
  check_bit t i "set";
  let w = (r * t.wpr) + (i / bpw) in
  Bigarray.Array1.unsafe_set t.data w
    (Bigarray.Array1.unsafe_get t.data w lor (1 lsl (i mod bpw)))
[@@dynlint.hot]

(* Unchecked variants for the innermost engine loops, where the row is
   a loop counter already bounded by the shard range.  Only meaningful
   on root planes; slices should use the checked entry points. *)

let unsafe_mem t r i =
  Bigarray.Array1.unsafe_get t.data ((r * t.wpr) + (i / bpw))
  land (1 lsl (i mod bpw))
  <> 0
[@@dynlint.hot]
[@@dynlint.unsafe_ok "caller contract: r is a loop counter bounded by the \
                      shard range (see Soa's row loops)"]

let unsafe_set t r i =
  let w = (r * t.wpr) + (i / bpw) in
  Bigarray.Array1.unsafe_set t.data w
    (Bigarray.Array1.unsafe_get t.data w lor (1 lsl (i mod bpw)))
[@@dynlint.hot]
[@@dynlint.unsafe_ok "caller contract: r is a loop counter bounded by the \
                      shard range (see Soa's row loops)"]

let popcount w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let row_popcount t r =
  check_row t r "row_popcount";
  let base = r * t.wpr in
  let acc = ref 0 in
  for i = 0 to t.wpr - 1 do
    acc := !acc + popcount (Bigarray.Array1.unsafe_get t.data (base + i))
  done;
  !acc
[@@dynlint.hot]

let row_clear t r =
  check_row t r "row_clear";
  let base = r * t.wpr in
  for i = 0 to t.wpr - 1 do
    Bigarray.Array1.unsafe_set t.data (base + i) 0
  done
[@@dynlint.hot]

(* {2 Bitset exchange}

   Both directions copy whole words; neither side retains a reference
   to the other's storage.  [extract_row] in particular must detach:
   handing out a view of the plane words would alias a protocol
   state's copy-on-write mask onto a mutable plane row, and the next
   in-place round update (or the next run reusing the plane) would
   rewrite history inside a supposedly persistent value. *)

let load_row t r bs =
  check_row t r "load_row";
  if Bitset.capacity bs <> t.width then
    invalid_arg
      (Printf.sprintf "Plane.load_row: bitset capacity %d <> plane width %d"
         (Bitset.capacity bs) t.width);
  let base = r * t.wpr in
  for i = 0 to t.wpr - 1 do
    Bigarray.Array1.unsafe_set t.data (base + i) (Bitset.load_word bs i)
  done
[@@dynlint.hot]

let extract_row t r =
  check_row t r "extract_row";
  let bs = Bitset.create t.width in
  let base = r * t.wpr in
  for i = 0 to t.wpr - 1 do
    Bitset.store_word bs i (Bigarray.Array1.unsafe_get t.data (base + i))
  done;
  bs
[@@dynlint.alloc_ok "the one sanctioned allocation on the learning path: \
                     extraction must detach into a fresh Bitset (aliasing \
                     plane words would let in-place updates rewrite \
                     persistent state history)"]

let union_row_into t ~src ~dst =
  check_row t src "union_row_into";
  check_row t dst "union_row_into";
  let sb = src * t.wpr and db = dst * t.wpr in
  for i = 0 to t.wpr - 1 do
    Bigarray.Array1.unsafe_set t.data (db + i)
      (Bigarray.Array1.unsafe_get t.data (db + i)
      lor Bigarray.Array1.unsafe_get t.data (sb + i))
  done
[@@dynlint.hot]
