open Ops

(* 62 bits per word keeps every word a non-negative OCaml immediate,
   so shifts and masks never touch the tag or sign bit. *)
let bpw = 62

type t = { cap : int; words : int array }

let words_for cap = (cap + bpw - 1) / bpw

let create cap =
  if cap < 0 then invalid_arg "Bitset.create: negative capacity";
  { cap; words = Array.make (words_for cap) 0 }

let capacity t = t.cap
let copy t = { t with words = Array.copy t.words }

let mem t i =
  i >= 0 && i < t.cap && t.words.(i / bpw) land (1 lsl (i mod bpw)) <> 0
[@@dynlint.hot]

let check t i op =
  if i < 0 || i >= t.cap then
    invalid_arg (Printf.sprintf "Bitset.%s: index %d out of range (cap=%d)" op i t.cap)

let set t i =
  check t i "set";
  t.words.(i / bpw) <- t.words.(i / bpw) lor (1 lsl (i mod bpw))
[@@dynlint.hot]

let unset t i =
  check t i "unset";
  t.words.(i / bpw) <- t.words.(i / bpw) land lnot (1 lsl (i mod bpw))

let clear t = Array.fill t.words 0 (Array.length t.words) 0 [@@dynlint.hot]

let add i t =
  check t i "add";
  if mem t i then t
  else begin
    let t' = copy t in
    set t' i;
    t'
  end

let remove i t =
  check t i "remove";
  if not (mem t i) then t
  else begin
    let t' = copy t in
    unset t' i;
    t'
  end

(* Kernighan's loop: one iteration per set bit.  Words are sparse in
   most protocol states, and there is no portable popcount in the
   stdlib, so this beats a table without unsafe tricks. *)
let popcount w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0
[@@dynlint.hot]

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let check_caps a b op =
  if a.cap <> b.cap then
    invalid_arg (Printf.sprintf "Bitset.%s: capacity mismatch (%d vs %d)" op a.cap b.cap)

let equal a b =
  check_caps a b "equal";
  int_array_equal a.words b.words

let subset a b =
  check_caps a b "subset";
  let ok = ref true in
  for i = 0 to Array.length a.words - 1 do
    if a.words.(i) land lnot b.words.(i) <> 0 then ok := false
  done;
  !ok

let map2 op name a b =
  check_caps a b name;
  let words = Array.mapi (fun i w -> op w b.words.(i)) a.words in
  { cap = a.cap; words }

let union a b = map2 ( lor ) "union" a b
let inter a b = map2 ( land ) "inter" a b
let diff a b = map2 (fun x y -> x land lnot y) "diff" a b

(* Bits of the last word at positions >= cap.  In-place word-wide
   operations must never set them: a bitset whose words were loaded
   from (or will be stored into) a word plane shares its word
   granularity with the plane rows, and junk above [cap] would
   round-trip into the plane and from there into whatever borrows the
   same words next (see Plane).  [set]/[unset] can't reach them, so
   masking at the word-wide entry points keeps the invariant global. *)
let pad_mask t =
  let r = t.cap mod bpw in
  if r = 0 then -1 else (1 lsl r) - 1

let union_into ~into b =
  check_caps into b "union_into";
  let words = into.words and src = b.words in
  for i = 0 to Array.length words - 1 do
    words.(i) <- words.(i) lor src.(i)
  done;
  let last = Array.length words - 1 in
  if last >= 0 then words.(last) <- words.(last) land pad_mask into

let blit ~src ~dst =
  check_caps src dst "blit";
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let load_word t i = t.words.(i) [@@dynlint.hot]

let store_word t i w =
  let nw = Array.length t.words in
  if i < 0 || i >= nw then
    invalid_arg (Printf.sprintf "Bitset.store_word: word %d out of range" i);
  let m = if i = nw - 1 then pad_mask t else -1 in
  t.words.(i) <- w land m

let iter f t =
  for wi = 0 to Array.length t.words - 1 do
    let w = ref t.words.(wi) in
    let base = wi * bpw in
    while !w <> 0 do
      let low = !w land -(!w) in
      (* log2 of a single set bit via linear scan over its word offset
         would be O(bpw); instead peel bits lowest-first. *)
      let rec bit_index b i = if b = 1 then i else bit_index (b lsr 1) (i + 1) in
      f (base + bit_index low 0);
      w := !w land (!w - 1)
    done
  done

let fold f t acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list cap l =
  let t = create cap in
  List.iter (set t) l;
  t

let of_array cap a =
  let t = create cap in
  Array.iter (set t) a;
  t

let next_set t i =
  let i = max i 0 in
  if i >= t.cap then t.cap
  else begin
    let r = ref t.cap in
    let wi = ref (i / bpw) in
    let nwords = Array.length t.words in
    (* Mask off bits below [i] in the first word, then scan whole words. *)
    let w = ref (t.words.(!wi) land lnot ((1 lsl (i mod bpw)) - 1)) in
    let continue = ref true in
    while !continue do
      if !w <> 0 then begin
        let low = !w land - !w in
        let rec bit_index b j = if b = 1 then j else bit_index (b lsr 1) (j + 1) in
        r := (!wi * bpw) + bit_index low 0;
        continue := false
      end
      else begin
        incr wi;
        if !wi >= nwords then continue := false else w := t.words.(!wi)
      end
    done;
    min !r t.cap
  end
[@@dynlint.hot]

let next_clear t i =
  let i = max i 0 in
  if i >= t.cap then t.cap
  else begin
    let r = ref t.cap in
    let wi = ref (i / bpw) in
    let nwords = Array.length t.words in
    let full = (1 lsl bpw) - 1 in
    (* Force bits below [i] to look set so they are skipped. *)
    let w = ref (t.words.(!wi) lor ((1 lsl (i mod bpw)) - 1)) in
    let continue = ref true in
    while !continue do
      if !w <> full then begin
        let inv = lnot !w land full in
        let low = inv land -inv in
        let rec bit_index b j = if b = 1 then j else bit_index (b lsr 1) (j + 1) in
        r := (!wi * bpw) + bit_index low 0;
        continue := false
      end
      else begin
        incr wi;
        if !wi >= nwords then continue := false else w := t.words.(!wi)
      end
    done;
    min !r t.cap
  end
[@@dynlint.hot]

let pp ppf t =
  Format.fprintf ppf "@[<h>{%a}@]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Format.pp_print_int)
    (to_list t)
