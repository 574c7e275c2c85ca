(* Fault plans: labelled (time, closure) steps compiled into engine
   events.  The plan itself is plain data built ahead of the run —
   that, plus seeding any randomness from the caller's Prng, is the
   whole determinism story. *)

type step = {
  at : float;
  tag : string;  (* "fault:<label>" or "heal:<label>" *)
  action : unit -> unit;
}

type t = { mutable steps : step list (* newest first *) }

let create () = { steps = [] }

let add t ~at tag action = t.steps <- { at; tag; action } :: t.steps

(* A NaN or infinite timestamp would silently wedge the plan (NaN
   compares false with everything, so sorting and the engine's
   past-clamp both misbehave): reject it at construction. *)
let check_finite fn at =
  if not (Float.is_finite at) then
    invalid_arg (fn ^ ": time must be finite")

let inject t ~at ~label action =
  check_finite "Fault.inject" at;
  add t ~at ("fault:" ^ label) action

let heal_at t ~at ~label action =
  check_finite "Fault.heal_at" at;
  add t ~at ("heal:" ^ label) action

let window t ~at ~until ~label ~apply ~heal =
  check_finite "Fault.window" at;
  check_finite "Fault.window" until;
  if until <= at then invalid_arg "Fault.window: until must be after at";
  inject t ~at ~label apply;
  heal_at t ~at:until ~label heal

let link_down t ~at ~until ?(label = "link_down") link =
  window t ~at ~until ~label
    ~apply:(fun () -> Link.set_up link false)
    ~heal:(fun () -> Link.set_up link true)

let link_blackhole t ~at ~until ?(label = "blackhole") link =
  window t ~at ~until ~label
    ~apply:(fun () -> Link.set_blackhole link true)
    ~heal:(fun () -> Link.set_blackhole link false)

let link_degrade t ~at ~until ?(label = "degrade") ?(rate_factor = 0.1) ?loss
    link =
  if rate_factor <= 0. || rate_factor > 1. then
    invalid_arg "Fault.link_degrade: rate_factor must be in (0, 1]";
  (* Capture the healthy settings at plan-build time; heal restores
     them even if several windows overlap awkwardly. *)
  let rate0 = Link.bit_rate link and loss0 = Link.loss link in
  window t ~at ~until ~label
    ~apply:(fun () ->
      Link.set_bit_rate link (rate0 *. rate_factor);
      match loss with None -> () | Some l -> Link.set_loss link l)
    ~heal:(fun () ->
      Link.set_bit_rate link rate0;
      Link.set_loss link loss0)

(* The mangle windows share one shape: capture the link's healthy
   mangle spec at plan-build time, overlay the adversarial spec at
   [at], restore the captured one at [until] — same discipline as
   [link_degrade]'s rate/loss capture. *)
let mangle_window t ~at ~until ~label link spec =
  let mangle0 = Link.mangle link in
  window t ~at ~until ~label
    ~apply:(fun () -> Link.set_mangle link spec)
    ~heal:(fun () -> Link.set_mangle link mangle0)

let link_corrupt t ~at ~until ?(label = "corrupt") ?(corrupt = 0.05) link =
  mangle_window t ~at ~until ~label link (Mangle.make ~corrupt ())

let link_reorder t ~at ~until ?(label = "reorder") ?(reorder = 0.2)
    ?(max_displacement = 4) link =
  mangle_window t ~at ~until ~label link
    (Mangle.make ~reorder ~max_displacement ())

let link_duplicate t ~at ~until ?(label = "duplicate") ?(duplicate = 0.1) link =
  mangle_window t ~at ~until ~label link (Mangle.make ~duplicate ())

let ordered t =
  (* steps is newest-first; a stable sort on the reversed list keeps
     insertion order among equal timestamps. *)
  List.stable_sort
    (fun a b -> Float.compare a.at b.at)
    (List.rev t.steps)

let events t = List.map (fun s -> (s.at, s.tag)) (ordered t)

let arm t engine =
  let r = Engine.flight engine in
  List.iter
    (fun s ->
      ignore
        (Engine.schedule_at engine ~time:s.at (fun () ->
             if Rina_util.Flight.on r then
               Rina_util.Flight.emit_to r ~component:"fault"
                 (Rina_util.Flight.Custom s.tag);
             s.action ())))
    (ordered t)
