(* Hashed timer wheel, poller-domain only — no locking.

   Buckets are keyed by deadline tick modulo the slot count. [advance]
   visits each past tick's bucket once per lap, and the current tick's
   bucket on every call until that tick has passed; an entry whose
   deadline is more than one revolution out is seen early, found not
   yet due ([at > now]), and left in place for the next lap — O(1)
   amortized per entry per lap, which is fine at poller cadence. *)

type t = {
  slots : (int, int64) Hashtbl.t array;  (* key -> absolute deadline ns *)
  overdue : (int, int64) Hashtbl.t;
      (* entries scheduled at or behind the cursor's tick: their bucket
         was already visited this revolution, so [advance] would only
         find them a full revolution later (slots x granularity). They
         go here instead and every [advance] checks them first. *)
  granularity_ns : int64;
  mutable cursor : int64;
      (* last tick wholly in the past: its bucket holds nothing due
         before the next revolution. The current tick is never wholly
         past, so every [advance] revisits its bucket. *)
}

let create ?(slots = 128) ~granularity_ns ~now () =
  if slots < 1 then invalid_arg "Rtnet.Wheel.create: slots must be >= 1";
  if Int64.compare granularity_ns 1L < 0 then
    invalid_arg "Rtnet.Wheel.create: granularity_ns must be >= 1";
  {
    slots = Array.init slots (fun _ -> Hashtbl.create 8);
    overdue = Hashtbl.create 8;
    granularity_ns;
    cursor = Int64.pred (Int64.div now granularity_ns);
  }

let slot_of t at =
  Int64.to_int
    (Int64.rem (Int64.div at t.granularity_ns) (Int64.of_int (Array.length t.slots)))

let schedule t key ~at =
  let tick = Int64.div at t.granularity_ns in
  if Int64.compare tick t.cursor <= 0 then begin
    (* Already due: the cursor has passed this bucket. Keep one entry
       per key: drop any stale slot entry so a later fire cannot
       double-report. *)
    Hashtbl.remove t.slots.(slot_of t at) key;
    Hashtbl.replace t.overdue key at
  end
  else begin
    Hashtbl.remove t.overdue key;
    Hashtbl.replace t.slots.(slot_of t at) key at
  end

let advance t ~now ~fire =
  (* Same-lap deadlines first: these were scheduled behind the cursor
     and would otherwise wait a full revolution. *)
  if Hashtbl.length t.overdue > 0 then begin
    let due = ref [] in
    Hashtbl.iter
      (fun key at -> if Int64.compare at now <= 0 then due := key :: !due)
      t.overdue;
    List.iter
      (fun key ->
        Hashtbl.remove t.overdue key;
        fire key)
      !due
  end;
  let tick = Int64.div now t.granularity_ns in
  let nslots = Array.length t.slots in
  let behind = Int64.sub tick t.cursor in
  (* A lap covers every bucket, so cap the walk at one revolution. *)
  let steps =
    if Int64.compare behind (Int64.of_int nslots) > 0 then nslots
    else Int64.to_int (max 0L behind)
  in
  let base = Int64.to_int (Int64.rem t.cursor (Int64.of_int nslots)) in
  for i = 1 to steps do
    let bucket = t.slots.((base + i) mod nslots) in
    (* Collect before firing: the callback may re-schedule into this
       same bucket. *)
    let due = ref [] in
    Hashtbl.iter
      (fun key at -> if Int64.compare at now <= 0 then due := key :: !due)
      bucket;
    List.iter
      (fun key ->
        Hashtbl.remove bucket key;
        fire key)
      !due
  done;
  (* An entry of the current tick that is not yet due was just skipped:
     leave the cursor one tick back so the next walk visits this bucket
     again instead of a revolution later. *)
  t.cursor <- Int64.pred tick

let pending t =
  Hashtbl.length t.overdue
  + Array.fold_left (fun acc b -> acc + Hashtbl.length b) 0 t.slots
