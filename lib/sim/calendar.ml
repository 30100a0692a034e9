(* Calendar queue (Brown 1988) over an int-entry pool: the engine's one
   event queue.

   Events are bucketed by time: with bucket width near the typical gap
   between consecutive events and about one bucket per live event,
   push is O(1) and pop-min is O(1) amortized — extract scans forward
   from the last minimum's bucket and almost always finds the next
   minimum within a step or two.

   Layout: entries live in one interleaved [int array] pool — key,
   sequence, value and next-link are the four consecutive words at the
   entry's base offset, so touching an entry costs one cache line, not
   four scattered ones (at 1e6 live events the pool is ~32 MB and every
   access is a DRAM miss; the interleaving is worth hundreds of ns per
   event).  Entries are recycled through a free list threaded over the
   link word, so a steady-state push/pop touches no allocator at all —
   the property the engine's GC-free hot loop is built on.  Buckets are
   singly-linked chains through the pool, and each bucket's head,
   metadata and tail are three consecutive words of one [int array],
   so a push or pop touches one bucket line, not three.  Bucket widths
   are powers of two, so an entry's day is [key lsr shift] and its
   bucket [day land mask], with no division on the hot path; a bucket
   therefore mixes entries from different "laps", and scans filter by
   [key < (day + 1) lsl shift] to consider only the current day's
   entries.

   Determinism: extraction picks the exact minimum under the total
   order [(key, seq)], and chain order inside a bucket never affects
   which entry is extracted (scans fold whole chains under the same
   total order), so neither relinking on resize nor the lazy chain sort
   below can perturb results.  Geometry only decides how fast the
   minimum is found, and it is itself a pure function of the operation
   sequence, so performance replays identically too.

   Geometry follows the traffic.  The queue counts its own work:
   buckets visited, chain entries walked and entries sorted.  Geometry
   is recomputed when the population doubles past [2 * nbuckets] or
   collapses under [nbuckets / 8], and when the work since the last
   resize exceeds [work_per_pop] per pop — a width too wide piles the
   dense front into a few long chains, one too narrow walks empty
   laps — and also exceeds what a resize costs, so resizing never
   costs more than the scanning it replaces.  The new
   bucket count is the next power of two >= len.  The new width is
   twice the mean gap between keys popped since the last resize when
   there were [gap_pops] of them; otherwise (a queue filling up) it is
   [2 * (median - min) / len] over the live keys, which a handful of
   far-future entries cannot inflate the way Brown's [max - min]
   does.  Entries never move on resize; only the links change.

   Degenerate case: a flood of same-key (or same-day) events all lands
   in one bucket, and a naive calendar queue pays O(flood) per pop to
   re-find the FIFO-next entry.  A chain therefore stays sorted by
   (key, seq) while pushes precede its head or follow its tail (each
   bucket keeps its tail, so a same-instant event, the largest seq so
   far, appends in O(1)); a sorted chain's head IS its minimum, so pops
   peek it in O(1).  A push anywhere else dirties the chain, and a scan
   that meets a dirty chain longer than [sort_threshold] sorts it once.
   Draining a flood of F ties costs at most one O(F log F) sort and
   then O(1) per pop, however many same-instant events it schedules,
   instead of O(F) per pop.  Short chains (the dispersed common case)
   are scanned directly and never pay the sort. *)

type t = {
  mutable shift : int; (* bucket width is [1 lsl shift] ns *)
  mutable mask : int; (* nbuckets - 1; nbuckets is a power of two *)
  (* Bucket [b] is [bk.(3b) = head entry] (-1 when empty), [bk.(3b+1)
     = (chain length lsl 1) lor sorted] and [bk.(3b+2) = tail entry].
     The sorted bit means the chain is (key, seq)-ascending, so its
     head is its minimum; a push that neither precedes the head nor
     follows the tail clears it.  Only a sorted chain's tail is ever
     read, and a pop from a sorted chain takes its head, so a pop never
     has to move the tail. *)
  mutable bk : int array;
  (* Entry pool: entry [e] is the four words [epool.(e) = key;
     epool.(e+1) = seq; epool.(e+2) = value; epool.(e+3) = next].
     Entry ids are base offsets (multiples of 4); -1 ends a chain. *)
  mutable epool : int array;
  mutable efree : int; (* free-list head, -1 when exhausted *)
  mutable ecap : int; (* entries, not words *)
  mutable len : int;
  (* Search start ("front"): <= the day of every live entry except
     possibly the cached minimum, which may sit below it.  Scans only
     run once the cached minimum has been consumed, so the exception
     can never be missed. *)
  mutable cur_div : int;
  (* Cached minimum (valid when cmin_e >= 0): entry, its chain
     predecessor (-1 = bucket head) and its bucket. *)
  mutable cmin_e : int;
  mutable cmin_p : int;
  mutable cmin_b : int;
  mutable sbuf : int array; (* scratch for sort_bucket, grows amortized *)
  mutable grow_at : int;
  mutable shrink_at : int;
  (* Pops since the last resize, and the least key live at it: with
     the front, the mean gap between those pops. *)
  mutable pops : int;
  mutable kmin0 : int;
  (* Buckets visited, chain entries walked and entries sorted since
     the last resize; [work_before] sums earlier geometries. *)
  mutable work : int;
  mutable work_before : int;
}

let initial_buckets = 16

(* 1.024us — an arbitrary seed; the first resize replaces it with a
   width measured from the contents. *)
let initial_shift = 10

(* Keys are simulated nanoseconds.  The day arithmetic computes
   [(key lsr shift + 1) lsl shift <= key + width], so capping keys at
   2^61 and widths at 2^40 keeps every intermediate well inside a
   63-bit int.  2^61 ns is ~73 years of simulated time. *)
let max_key = 1 lsl 61
let max_shift = 40

(* Pops needed before their mean gap is trusted as the width, unless
   too few keys are live for a median. *)
let gap_pops = 32

(* A geometry that cost more than this per pop is replaced. *)
let work_per_pop = 8

let empty_buckets nb =
  let bk = Array.make (3 * nb) (-1) in
  for b = 0 to nb - 1 do
    bk.((3 * b) + 1) <- 0
  done;
  bk

let create () =
  {
    shift = initial_shift;
    mask = initial_buckets - 1;
    bk = empty_buckets initial_buckets;
    epool = [||];
    efree = -1;
    ecap = 0;
    len = 0;
    cur_div = 0;
    cmin_e = -1;
    cmin_p = -1;
    cmin_b = 0;
    sbuf = [||];
    grow_at = 2 * initial_buckets;
    shrink_at = 0;
    pops = 0;
    kmin0 = 0;
    work = 0;
    work_before = 0;
  }

let length t = t.len
let is_empty t = t.len = 0
let work t = t.work_before + t.work

let grow_pool t =
  let ncap = if t.ecap = 0 then 16 else t.ecap * 2 in
  let npool = Array.make (4 * ncap) 0 in
  Array.blit t.epool 0 npool 0 (4 * t.ecap);
  (* Thread the new slots onto the free list, lowest id first. *)
  for i = ncap - 1 downto t.ecap do
    let e = 4 * i in
    npool.(e + 3) <- t.efree;
    t.efree <- e
  done;
  t.epool <- npool;
  t.ecap <- ncap

(* Walk one bucket chain and fold every entry of the day bounded by
   [hi] into the cached minimum.  Tail-recursive over int arguments so
   the pop path never allocates. *)
let rec scan_bucket t ~hi ~b e p =
  if e >= 0 then begin
    let pool = t.epool in
    let k = pool.(e) in
    (if k < hi then
       let m = t.cmin_e in
       if m < 0 || k < pool.(m) || (k = pool.(m) && pool.(e + 1) < pool.(m + 1))
       then begin
         t.cmin_e <- e;
         t.cmin_p <- p;
         t.cmin_b <- b
       end);
    scan_bucket t ~hi ~b pool.(e + 3) e
  end

(* Fold just the head of a (key, seq)-sorted chain into the cached
   minimum: every deeper entry is strictly larger.  If the head is
   beyond [hi] the whole bucket holds only later days. *)
let scan_sorted t ~hi ~b =
  let e = t.bk.(3 * b) in
  if e >= 0 then begin
    let pool = t.epool in
    let k = pool.(e) in
    if k < hi then begin
      let m = t.cmin_e in
      if m < 0 || k < pool.(m) || (k = pool.(m) && pool.(e + 1) < pool.(m + 1))
      then begin
        t.cmin_e <- e;
        t.cmin_p <- -1;
        t.cmin_b <- b
      end
    end
  end

(* Dirty chains longer than this are sorted on first scan; below it a
   plain walk is cheaper than maintaining order. *)
let sort_threshold = 32

let[@inline] entry_lt (pool : int array) a b =
  let ka = pool.(a) and kb = pool.(b) in
  ka < kb || (ka = kb && pool.(a + 1) < pool.(b + 1))

(* Bottom-up merge sort of entry ids by (key, seq), worst-case
   O(n log n).  Bucket chains here are NOT random: the resize relink
   reverses each chain, so a flood bucket arrives as a stack of
   alternately reversed blocks — a pattern a deterministic-pivot
   quicksort degrades to O(n^2) on (a ~100k flood paid seconds for its
   one lazy sort).  Seed runs of [run_width] are built by insertion
   sort, then merged between [buf] and the scratch half of the same
   array; ties cannot occur ((key, seq) pairs are unique). *)
let run_width = 16

(* Merge [buf[s+lo, s+mid)] and [buf[s+mid, s+hi)] into
   [buf[d+lo, d+hi)]: the two halves of one scratch array addressed by
   base offset, so alternating passes swap offsets instead of
   allocating a second array. *)
let merge (pool : int array) buf ~s ~d lo mid hi =
  let i = ref lo and j = ref mid and k = ref lo in
  while !i < mid && !j < hi do
    if entry_lt pool buf.(s + !j) buf.(s + !i) then begin
      buf.(d + !k) <- buf.(s + !j);
      incr j
    end
    else begin
      buf.(d + !k) <- buf.(s + !i);
      incr i
    end;
    incr k
  done;
  while !i < mid do
    buf.(d + !k) <- buf.(s + !i);
    incr i;
    incr k
  done;
  while !j < hi do
    buf.(d + !k) <- buf.(s + !j);
    incr j;
    incr k
  done

(* Sort [buf[0, n)], using [buf[n, 2n)] as scratch.  Returns the base
   offset (0 or n) the sorted ids ended up at. *)
let msort (pool : int array) buf n =
  let lo = ref 0 in
  while !lo < n do
    let hi = Int.min n (!lo + run_width) in
    for i = !lo + 1 to hi - 1 do
      let x = buf.(i) in
      let j = ref (i - 1) in
      while !j >= !lo && entry_lt pool x buf.(!j) do
        buf.(!j + 1) <- buf.(!j);
        decr j
      done;
      buf.(!j + 1) <- x
    done;
    lo := !lo + run_width
  done;
  let s = ref 0 and d = ref n and w = ref run_width in
  while !w < n do
    let lo = ref 0 in
    while !lo < n do
      let mid = Int.min n (!lo + !w) in
      let hi = Int.min n (!lo + (2 * !w)) in
      merge pool buf ~s:!s ~d:!d !lo mid hi;
      lo := hi
    done;
    let o = !s in
    s := !d;
    d := o;
    w := 2 * !w
  done;
  !s

let sort_bucket t b =
  let n = t.bk.((3 * b) + 1) lsr 1 in
  (* [sbuf] holds the chain ids in its first half and merge scratch in
     its second; both halves must fit. *)
  (if Array.length t.sbuf < 2 * n then begin
     let cap = ref (Int.max 128 (2 * Array.length t.sbuf)) in
     while !cap < 2 * n do
       cap := !cap * 2
     done;
     t.sbuf <- Array.make !cap 0
   end);
  let pool = t.epool in
  let buf = t.sbuf in
  let e = ref t.bk.(3 * b) and i = ref 0 in
  while !e >= 0 do
    buf.(!i) <- !e;
    incr i;
    e := pool.(!e + 3)
  done;
  let o = msort pool buf n in
  t.bk.(3 * b) <- buf.(o);
  for j = 0 to n - 2 do
    pool.(buf.(o + j) + 3) <- buf.(o + j + 1)
  done;
  pool.(buf.(o + n - 1) + 3) <- -1;
  t.bk.((3 * b) + 1) <- (n lsl 1) lor 1;
  t.bk.((3 * b) + 2) <- buf.(o + n - 1)

(* A sorted chain costs one look at its head; a dirty one a walk of
   every entry, or a sort when it is long. *)
let visit_bucket t ~hi ~b =
  let meta = t.bk.((3 * b) + 1) in
  if meta land 1 = 1 then scan_sorted t ~hi ~b
  else begin
    let n = meta lsr 1 in
    t.work <- t.work + n;
    if n > sort_threshold then begin
      sort_bucket t b;
      scan_sorted t ~hi ~b
    end
    else scan_bucket t ~hi ~b t.bk.(3 * b) (-1)
  end

(* One lap of buckets starting at day [d]: the first bucket holding an
   entry of its own day holds the minimum (every residue is visited
   exactly once per lap, so a candidate with [key < (d + 1) lsl shift]
   has day [d] exactly).  Counts the buckets it visits as work. *)
let rec lap_scan t d lap nb =
  if lap < nb && t.cmin_e < 0 then begin
    visit_bucket t ~hi:((d + 1) lsl t.shift) ~b:(d land t.mask);
    lap_scan t (d + 1) (lap + 1) nb
  end
  else t.work <- t.work + lap

let rec bit_length d n = if d = 0 then n else bit_length (d lsr 1) (n + 1)

(* The median of [buf.(i) - kmin] over [buf[off, off + n)], from a
   histogram of their bit lengths: the bin holding the median, then a
   linear guess inside it.  Right to within its power of two, which is
   all a power-of-two width needs, in one pass that reorders nothing.
   (A deterministic-pivot quickselect has inputs that drive it
   quadratic, and the chain orders a resize leaves include them.) *)
let median_offset buf ~off ~n ~kmin =
  let hist = Array.make 64 0 in
  for i = off to off + n - 1 do
    let b = bit_length (buf.(i) - kmin) 0 in
    hist.(b) <- hist.(b) + 1
  done;
  (* Bin [b] holds offsets in [2^(b-1), 2^b); bin 0 holds 0. *)
  let half = n / 2 in
  let rec find b below =
    if below + hist.(b) > half then (b, below)
    else find (b + 1) (below + hist.(b))
  in
  let b, below = find 0 0 in
  if b = 0 then 0
  else
    let lo = 1 lsl (b - 1) in
    lo
    + Float.to_int
        (Float.of_int lo *. Float.of_int (half - below)
        /. Float.of_int hist.(b))

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go initial_buckets

(* The narrowest power-of-two width of at least [2 * span / count]
   ns, twice the mean gap when [count] gaps cover [span]: that ratio
   rounded up, computed without overflowing for any key span. *)
let shift_for ~span ~count =
  let q = Int.min (span / count) (1 lsl max_shift) in
  let w = (2 * q) + (((2 * (span mod count)) + count - 1) / count) in
  let rec go s = if s >= max_shift || 1 lsl s >= w then s else go (s + 1) in
  go 0

let rec global_scan t b nb =
  if b < nb then begin
    visit_bucket t ~hi:max_int ~b;
    global_scan t (b + 1) nb
  end

let find_min t =
  if t.cmin_e < 0 then begin
    let nb = t.mask + 1 in
    lap_scan t t.cur_div 0 nb;
    (* A whole lap without an entry of its own day: every live entry
       lies beyond it, so find the minimum directly and jump the front
       to it.  The pass counts as work, so a population that keeps
       outrunning its lap (a width too narrow for it) soon has its
       geometry measured again. *)
    if t.cmin_e < 0 then begin
      global_scan t 0 nb;
      t.work <- t.work + nb
    end;
    t.cur_div <- t.epool.(t.cmin_e) lsr t.shift
  end

(* Recompute geometry from the live population (never empty here) and
   the traffic since the last resize, and relink every entry.
   O(len + nbuckets), amortized against the doubling, shrinking or
   scan work that triggered it.  Entries stay where they are in the
   pool; only chain links and the bucket array change. *)
let resize t =
  let len = t.len and pool = t.epool in
  (* Gather every entry id into [buf[0, len)] and its key into
     [buf[len, 2 len)]: one walk of the chains, after which the relink
     reads ids from a flat array instead of chasing links.  The buffer
     is dropped afterwards rather than kept at twice the peak
     population. *)
  let buf = Array.make (2 * len) 0 in
  let i = ref 0 and kmin = ref max_int in
  for b = 0 to t.mask do
    let e = ref t.bk.(3 * b) in
    while !e >= 0 do
      let k = pool.(!e) in
      buf.(!i) <- !e;
      buf.(len + !i) <- k;
      if k < !kmin then kmin := k;
      incr i;
      e := pool.(!e + 3)
    done
  done;
  (if t.pops >= gap_pops || (len < 2 && t.pops > 0) then
     let front = t.cur_div lsl t.shift in
     t.shift <- shift_for ~span:(front - t.kmin0) ~count:t.pops
   else if len >= 2 then
     let median = median_offset buf ~off:len ~n:len ~kmin:!kmin in
     t.shift <- shift_for ~span:median ~count:len);
  let nb = next_pow2 len in
  let bk = empty_buckets nb in
  let mask = nb - 1 in
  let shift = t.shift in
  for j = 0 to len - 1 do
    let e = buf.(j) in
    let i = 3 * ((pool.(e) lsr shift) land mask) in
    if bk.(i) < 0 then bk.(i + 2) <- e;
    pool.(e + 3) <- bk.(i);
    bk.(i) <- e;
    bk.(i + 1) <- bk.(i + 1) + 2
  done;
  (* Singleton chains are trivially sorted. *)
  for b = 0 to nb - 1 do
    if bk.((3 * b) + 1) = 2 then bk.((3 * b) + 1) <- 3
  done;
  t.bk <- bk;
  t.mask <- mask;
  t.cmin_e <- -1;
  t.grow_at <- 2 * nb;
  t.shrink_at <- (if nb <= initial_buckets then 0 else nb / 8);
  t.work_before <- t.work_before + t.work;
  t.work <- 0;
  t.pops <- 0;
  (* The next search, and the next mean gap, start at the minimum. *)
  t.kmin0 <- !kmin;
  t.cur_div <- !kmin lsr shift

let push_ns t ~key ~seq v =
  if key < 0 || key > max_key then
    invalid_arg "Calendar.push_ns: key out of range";
  if t.len >= t.grow_at then resize t;
  (if t.efree < 0 then grow_pool t);
  let pool = t.epool in
  let e = t.efree in
  t.efree <- pool.(e + 3);
  pool.(e) <- key;
  pool.(e + 1) <- seq;
  pool.(e + 2) <- v;
  let d = key lsr t.shift in
  let b = d land t.mask in
  let i = 3 * b in
  let bk = t.bk in
  let h0 = bk.(i) and meta = bk.(i + 1) in
  (* A sorted chain stays sorted when the newcomer precedes its head
     (a prepend) or follows its tail (an append).  The tail is only
     looked at, one more entry and so one more cache miss at depth,
     when it can pay: in a tie with the head (every event an engine
     schedules for the instant it is running, so a flood of them never
     dirties its chain) or in a chain long enough to need a sort.  Any
     other push into a nonempty chain prepends and clears the sorted
     bit.  An appended entry follows a live one, so it is never the new
     minimum. *)
  let precedes =
    h0 < 0 || key < pool.(h0) || (key = pool.(h0) && seq < pool.(h0 + 1))
  in
  let appended =
    (not precedes)
    && meta land 1 = 1
    && (key = pool.(h0) || meta lsr 1 > sort_threshold)
    &&
    let l = bk.(i + 2) in
    key > pool.(l) || (key = pool.(l) && seq > pool.(l + 1))
  in
  if appended then begin
    pool.(bk.(i + 2) + 3) <- e;
    pool.(e + 3) <- -1;
    bk.(i + 1) <- meta + 2;
    bk.(i + 2) <- e
  end
  else begin
    pool.(e + 3) <- h0;
    bk.(i) <- e;
    if h0 < 0 then begin
      bk.(i + 1) <- 3;
      bk.(i + 2) <- e
    end
    else if precedes then bk.(i + 1) <- meta + 2
    else bk.(i + 1) <- (meta lor 1) + 1
  end;
  let m = t.cmin_e in
  (if t.len = 0 then begin
     t.cur_div <- d;
     t.cmin_e <- e;
     t.cmin_p <- -1;
     t.cmin_b <- b
   end
   else if d < t.cur_div then begin
     (* The new entry lies strictly below every key covered by
        [cur_div], so it is the global minimum -- unless the cached
        minimum is itself a below-front exception.  Keeping [cur_div]
        at the front (rather than dragging it down to [d]) is what
        keeps pop cost O(1): otherwise each transient early entry
        would force the next scan to re-walk the empty low range. *)
     if m >= 0 && pool.(m) < t.cur_div lsl t.shift then begin
       if key < pool.(m) || (key = pool.(m) && seq < pool.(m + 1)) then begin
         (* The old exception loses; re-cover it by lowering the front. *)
         t.cur_div <- pool.(m) lsr t.shift;
         t.cmin_e <- e;
         t.cmin_p <- -1;
         t.cmin_b <- b
       end
       else begin
         (* New entry loses; re-cover it by lowering the front.  It
            was still prepended, so it may have dethroned the cached
            minimum as head of the same bucket. *)
         t.cur_div <- d;
         if (not appended) && b = t.cmin_b && t.cmin_p < 0 then
           t.cmin_p <- e
       end
     end
     else begin
       t.cmin_e <- e;
       t.cmin_p <- -1;
       t.cmin_b <- b
     end
   end
   else if m >= 0 then begin
     if key < pool.(m) || (key = pool.(m) && seq < pool.(m + 1)) then begin
       (* The new entry is the new minimum; it is its bucket's head. *)
       t.cmin_e <- e;
       t.cmin_p <- -1;
       t.cmin_b <- b
     end
     else if (not appended) && b = t.cmin_b && t.cmin_p < 0 then
       (* Prepending dethroned the cached minimum as bucket head. *)
       t.cmin_p <- e
   end);
  t.len <- t.len + 1

(* The sorted bit survives a pop: the cached minimum is either its
   bucket's head (head removal preserves order) or sits mid-chain in a
   bucket some push already dirtied. *)
let pop_min t =
  if t.len = 0 then invalid_arg "Calendar.pop_min: empty";
  find_min t;
  let pool = t.epool in
  let e = t.cmin_e and p = t.cmin_p and b = t.cmin_b in
  let k = pool.(e) in
  (* Only ever move the front forward: if the popped entry was a
     below-front exception, [cur_div] still bounds the remainder. *)
  (let d = k lsr t.shift in
   if d > t.cur_div then t.cur_div <- d);
  t.pops <- t.pops + 1;
  let i = 3 * b and next = pool.(e + 3) in
  if p < 0 then t.bk.(i) <- next else pool.(p + 3) <- next;
  t.bk.(i + 1) <- t.bk.(i + 1) - 2;
  let v = pool.(e + 2) in
  pool.(e + 3) <- t.efree;
  t.efree <- e;
  t.len <- t.len - 1;
  t.cmin_e <- -1;
  if
    t.len < t.shrink_at
    || t.len > 0
       && t.work > work_per_pop * t.pops
       && t.work > t.len + t.mask + 1
  then resize t;
  v

let min_key_ns t =
  if t.len = 0 then max_int
  else begin
    find_min t;
    t.epool.(t.cmin_e)
  end

let min_seq_ns t =
  if t.len = 0 then max_int
  else begin
    find_min t;
    t.epool.(t.cmin_e + 1)
  end

let clear t =
  t.shift <- initial_shift;
  t.mask <- initial_buckets - 1;
  t.bk <- empty_buckets initial_buckets;
  t.epool <- [||];
  t.efree <- -1;
  t.ecap <- 0;
  t.len <- 0;
  t.cur_div <- 0;
  t.cmin_e <- -1;
  t.cmin_p <- -1;
  t.cmin_b <- 0;
  t.sbuf <- [||];
  t.grow_at <- 2 * initial_buckets;
  t.shrink_at <- 0;
  t.pops <- 0;
  t.work <- 0;
  t.work_before <- 0
