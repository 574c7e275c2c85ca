(* Parallel-array layout: keys in an unboxed float array, sequence
   numbers and payloads alongside.  A push allocates nothing beyond
   amortised array growth (the classic record-of-entries layout costs a
   record plus a boxed float per insert), and the hot comparisons read
   unboxed floats.

   The tree is 4-ary: children of [i] are [4i+1 .. 4i+4], so a pop
   walks half as many levels as a binary heap, and the four children
   of a node share a cache line or two of each array.  Both sifts move
   a hole instead of swapping: the entry being placed is held in locals
   and every level does one three-field move (one write barrier, on
   [vals]) instead of a swap (two).

   Every slot of [vals] at or past [size] holds [filler], so a popped
   or compacted entry is unreachable from the heap as soon as it
   leaves it. *)

type 'a t = {
  mutable keys : floatarray;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
  filler : 'a;
}

let create ~filler =
  {
    keys = Float.Array.create 0;
    seqs = [||];
    vals = [||];
    size = 0;
    next_seq = 0;
    filler;
  }

let length h = h.size

let is_empty h = h.size = 0

(* [i] sorts before [j] if its key is smaller, or on equal keys if it
   was inserted earlier — this gives FIFO semantics for simultaneous
   events, which keeps simulations deterministic. *)
let[@inline] before h i j =
  let ki = Float.Array.get h.keys i and kj = Float.Array.get h.keys j in
  ki < kj || (ki = kj && h.seqs.(i) < h.seqs.(j))

let[@inline] move h ~src ~dst =
  Float.Array.set h.keys dst (Float.Array.get h.keys src);
  h.seqs.(dst) <- h.seqs.(src);
  h.vals.(dst) <- h.vals.(src)

let ensure_room h =
  let cap = Array.length h.vals in
  if h.size = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let keys = Float.Array.create ncap in
    Float.Array.blit h.keys 0 keys 0 h.size;
    let seqs = Array.make ncap 0 in
    Array.blit h.seqs 0 seqs 0 h.size;
    let vals = Array.make ncap h.filler in
    Array.blit h.vals 0 vals 0 h.size;
    h.keys <- keys;
    h.seqs <- seqs;
    h.vals <- vals
  end

(* The entry at [start] moves up.  It is read into locals here rather
   than passed in: a float argument to a function that is not inlined
   is boxed, one allocation per push. *)
let sift_up h start =
  let key = Float.Array.get h.keys start
  and seq = h.seqs.(start)
  and value = h.vals.(start) in
  let i = ref start in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    let kp = Float.Array.get h.keys parent in
    if key < kp || (key = kp && seq < h.seqs.(parent)) then begin
      move h ~src:parent ~dst:!i;
      i := parent
    end
    else continue := false
  done;
  if !i <> start then begin
    Float.Array.set h.keys !i key;
    h.seqs.(!i) <- seq;
    h.vals.(!i) <- value
  end

let push_raw h key seq value =
  ensure_room h;
  Float.Array.set h.keys h.size key;
  h.seqs.(h.size) <- seq;
  h.vals.(h.size) <- value;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let push h key value =
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  push_raw h key seq value

let reserve_seq h =
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  seq

let push_with_seq h ~key ~seq value =
  if seq >= h.next_seq then h.next_seq <- seq + 1;
  push_raw h key seq value

(* The entry at [start] moves down, held in locals like [sift_up]'s. *)
let sift_down_from h start =
  let key = Float.Array.get h.keys start
  and seq = h.seqs.(start)
  and value = h.vals.(start) in
  let i = ref start in
  let continue = ref true in
  while !continue do
    let first = (4 * !i) + 1 in
    if first >= h.size then continue := false
    else begin
      let best = ref first in
      let last = if first + 3 < h.size then first + 3 else h.size - 1 in
      for c = first + 1 to last do
        if before h c !best then best := c
      done;
      let c = !best in
      let kc = Float.Array.get h.keys c in
      if kc < key || (kc = key && h.seqs.(c) < seq) then begin
        move h ~src:c ~dst:!i;
        i := c
      end
      else continue := false
    end
  done;
  if !i <> start then begin
    Float.Array.set h.keys !i key;
    h.seqs.(!i) <- seq;
    h.vals.(!i) <- value
  end

(* Unboxed access: the engine's event loop reads the top fields and
   drops the minimum without materialising an option or a tuple. *)

let top_key h =
  if h.size = 0 then invalid_arg "Heap.top_key: empty heap";
  Float.Array.get h.keys 0

let top_value h =
  if h.size = 0 then invalid_arg "Heap.top_value: empty heap";
  h.vals.(0)

let drop_min h =
  if h.size = 0 then invalid_arg "Heap.drop_min: empty heap";
  h.size <- h.size - 1;
  if h.size > 0 then begin
    move h ~src:h.size ~dst:0;
    sift_down_from h 0
  end;
  h.vals.(h.size) <- h.filler

let pop h =
  if h.size = 0 then None
  else begin
    let key = Float.Array.get h.keys 0 and value = h.vals.(0) in
    drop_min h;
    Some (key, value)
  end

let peek h =
  if h.size = 0 then None else Some (Float.Array.get h.keys 0, h.vals.(0))

(* Drop every entry whose value fails [keep], then rebuild the heap
   property bottom-up (Floyd, O(n)).  Seq numbers are untouched, so
   FIFO ordering among surviving equal-key entries is preserved. *)
let compact h ~keep =
  let kept = ref 0 in
  for i = 0 to h.size - 1 do
    if keep h.vals.(i) then begin
      if !kept <> i then move h ~src:i ~dst:!kept;
      incr kept
    end
  done;
  let removed = h.size - !kept in
  Array.fill h.vals !kept removed h.filler;
  h.size <- !kept;
  (* The last parent is (size - 2) / 4, which rounds toward zero to 0
     for a heap of 0 or 1 entries: those have no parent to sift, and
     sifting index 0 of an empty heap would read past its arrays. *)
  if h.size > 1 then
    for i = (h.size - 2) / 4 downto 0 do
      sift_down_from h i
    done;
  removed

let clear h =
  h.size <- 0;
  h.keys <- Float.Array.create 0;
  h.seqs <- [||];
  h.vals <- [||]
