open Config
module I = Llm.Intent

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let pfx = Netaddr.Prefix.of_string_exn
let comm = Bgp.Community.of_string_exn
let ip = Netaddr.Ipv4.of_string_exn

let paper_prompt =
  "Write a route-map stanza that permits routes containing the prefix \
   100.0.0.0/16 with mask length less than or equal to 23 and tagged with \
   the community 300:3. Their MED value should be set to 55."

(* ------------------------------------------------------------------ *)
(* Classifier                                                         *)
(* ------------------------------------------------------------------ *)

let test_classifier () =
  check "paper prompt is a route-map query" true
    (Llm.Classifier.classify paper_prompt = `Route_map);
  check "acl prompt" true
    (Llm.Classifier.classify
       "Write an access list rule that denies udp traffic from anywhere to \
        host 192.168.1.1 with destination port 53."
    = `Acl);
  check "route-ish" true
    (Llm.Classifier.classify
       "Write a route-map stanza that denies routes originating from AS 65010."
    = `Route_map);
  check "tcp wins" true
    (Llm.Classifier.classify
       "permit tcp packets from 10.0.0.0/8 to any destination port 80"
    = `Acl)

(* ------------------------------------------------------------------ *)
(* NL parsing of the paper's prompt                                   *)
(* ------------------------------------------------------------------ *)

let test_parse_paper_prompt () =
  match Llm.Nl_parser.parse_route_map paper_prompt with
  | Error e -> Alcotest.failf "parse failed: %s" (Llm.Nl_parser.error_message e)
  | Ok i ->
      check "permit" true (i.I.action = Action.Permit);
      (match i.I.prefixes with
      | [ r ] ->
          check "range" true
            (Netaddr.Prefix_range.equal r
               (Netaddr.Prefix_range.make (pfx "100.0.0.0/16") ~ge:None
                  ~le:(Some 23)))
      | _ -> Alcotest.fail "expected one prefix");
      check "community" true (i.I.communities = [ comm "300:3" ]);
      check "metric set" true (i.I.sets = [ Route_map.Set_metric 55 ])

let test_parse_variants () =
  let ok s = Result.is_ok (Llm.Nl_parser.parse_route_map s) in
  check "deny origin" true
    (ok "Write a route-map stanza that denies routes originating from AS 65010.");
  check "blocks synonym" true (ok "Blocks routes passing through AS 100.");
  check "between window" true
    (ok "Allow routes containing the prefix 10.0.0.0/8 with mask length between 24 and 28.");
  check "at most" true
    (ok "Permit routes containing the prefix 10.0.0.0/8 with mask length at most 24.");
  check "multi sets" true
    (ok "Permit routes with local preference 300. Their MED value should be set to 5. Their tag should be set to 9.")

let test_parse_rejects () =
  let fails s = Result.is_error (Llm.Nl_parser.parse_route_map s) in
  check "no verb" true (fails "Routes containing the prefix 10.0.0.0/8.");
  check "garbled set sentence" true
    (fails "Permit routes with local preference 300. Make it fast.")

let test_parse_acl_prompt () =
  match
    Llm.Nl_parser.parse `Acl
      "Write an access list rule that permits tcp traffic from 10.0.0.0/8 to \
       host 1.2.3.4 with destination port 443 and for established \
       connections only."
  with
  | Ok (I.Acl a) ->
      check "permit" true (a.I.acl_action = Action.Permit);
      check "tcp" true (a.I.protocol = Packet.Tcp);
      check "src prefix" true
        (a.I.src = Acl.addr_of_prefix (pfx "10.0.0.0/8"));
      check "dst host" true (a.I.dst = Acl.Host (ip "1.2.3.4"));
      check "dst port" true (a.I.dst_port = Acl.Eq 443);
      check "established" true a.I.established
  | Ok (I.Route_map _) -> Alcotest.fail "classified as route-map"
  | Error e -> Alcotest.failf "parse failed: %s" (Llm.Nl_parser.error_message e)

(* ------------------------------------------------------------------ *)
(* Render/parse round-trip over random intents                        *)
(* ------------------------------------------------------------------ *)

let gen_route_map_intent =
  QCheck.Gen.(
    let gen_range =
      oneofl [ pfx "10.0.0.0/8"; pfx "100.0.0.0/16"; pfx "192.168.0.0/16" ]
      >>= fun p ->
      oneof
        [
          return (Netaddr.Prefix_range.exact p);
          (let len = p.Netaddr.Prefix.len in
           int_range len 32 >>= fun hi ->
           return (Netaddr.Prefix_range.make p ~ge:None ~le:(Some hi)));
          (let len = p.Netaddr.Prefix.len in
           int_range len 32 >>= fun lo ->
           return (Netaddr.Prefix_range.make p ~ge:(Some lo) ~le:None));
        ]
    in
    oneofl [ Action.Permit; Action.Deny ] >>= fun action ->
    list_size (int_range 0 2) gen_range >>= fun prefixes ->
    list_size (int_range 0 2) (oneofl [ comm "300:3"; comm "65000:1"; comm "1:2" ])
    >>= fun communities ->
    let communities = List.sort_uniq Bgp.Community.compare communities in
    oneofl [ None; Some 32; Some 65010 ] >>= fun as_path_origin ->
    (match as_path_origin with
    | Some _ -> return None
    | None -> oneofl [ None; Some 100 ])
    >>= fun as_path_contains ->
    oneofl [ None; Some 300 ] >>= fun local_pref ->
    oneofl [ None; Some 20 ] >>= fun metric_match ->
    oneofl [ None; Some 7 ] >>= fun tag_match ->
    list_size (int_range 0 2)
      (oneofl
         [
           Route_map.Set_metric 55;
           Route_map.Set_local_pref 200;
           Route_map.Set_community
             { communities = [ comm "65000:9" ]; additive = true };
           Route_map.Set_as_path_prepend [ 65000; 65000 ];
           Route_map.Set_next_hop (ip "10.9.9.9");
           Route_map.Set_tag 42;
           Route_map.Set_weight 5;
           Route_map.Set_origin Bgp.Route.Incomplete;
         ])
    >>= fun sets ->
    (* At most one set clause of each kind, or rendering is ambiguous. *)
    let dedup_kind sets =
      let seen = Hashtbl.create 4 in
      List.filter
        (fun s ->
          let k =
            match s with
            | Route_map.Set_metric _ -> 0
            | Route_map.Set_local_pref _ -> 1
            | Route_map.Set_community _ -> 2
            | Route_map.Set_as_path_prepend _ -> 3
            | Route_map.Set_next_hop _ -> 4
            | Route_map.Set_tag _ -> 5
            | Route_map.Set_weight _ -> 6
            | Route_map.Set_origin _ -> 7
            | Route_map.Set_comm_list_delete _ -> 8
          in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        sets
    in
    return
      {
        I.action;
        prefixes;
        communities;
        as_path_origin;
        as_path_contains;
        local_pref;
        metric_match;
        tag_match;
        sets = dedup_kind sets;
      })

let arb_intent =
  QCheck.make
    ~print:(fun i -> I.to_prompt (I.Route_map i))
    gen_route_map_intent

let prop_render_parse_roundtrip =
  QCheck.Test.make ~name:"intent -> English -> intent roundtrip" ~count:500
    arb_intent
    (fun i ->
      match Llm.Nl_parser.parse_route_map (I.to_prompt (I.Route_map i)) with
      | Error e ->
          QCheck.Test.fail_reportf "parse failed: %s"
            (Llm.Nl_parser.error_message e)
      | Ok i' -> i' = i)

let prop_synthesized_config_verifies =
  (* The clean LLM pipeline: render intent to English, synthesize config,
     parse it, and check it verifies against the intent's own spec. *)
  QCheck.Test.make ~name:"clean synthesis verifies against the intent spec"
    ~count:200 arb_intent
    (fun i ->
      let llm = Llm.Mock_llm.create () in
      let prompt = I.to_prompt (I.Route_map i) in
      let entry = Llm.Prompt_db.retrieve `Route_map in
      match
        Llm.Mock_llm.synthesize llm
          { Llm.Mock_llm.system = entry.Llm.Prompt_db.system;
            few_shot = entry.Llm.Prompt_db.few_shot; user = prompt }
      with
      | Error m -> QCheck.Test.fail_reportf "llm error: %s" m
      | Ok text -> (
          match Parser.parse text with
          | Error m -> QCheck.Test.fail_reportf "unparseable: %s\n%s" m text
          | Ok snippet -> (
              match Database.route_maps snippet with
              | [ rm ] -> (
                  let spec = I.spec_of_route_map i in
                  match Engine.Search_route_policies.verify_stanza snippet rm spec with
                  | Engine.Search_route_policies.Verified -> true
                  | v ->
                      QCheck.Test.fail_reportf "verdict: %s\n%s"
                        (Format.asprintf "%a"
                           Engine.Search_route_policies.pp_verdict v)
                        text)
              | _ -> QCheck.Test.fail_reportf "bad snippet shape:\n%s" text)))

(* ------------------------------------------------------------------ *)
(* Fault injection                                                    *)
(* ------------------------------------------------------------------ *)

let paper_intent =
  {
    I.action = Action.Permit;
    prefixes =
      [ Netaddr.Prefix_range.make (pfx "100.0.0.0/16") ~ge:None ~le:(Some 23) ];
    communities = [ comm "300:3" ];
    as_path_origin = None;
    as_path_contains = None;
    local_pref = None;
    metric_match = None;
    tag_match = None;
    sets = [ Route_map.Set_metric 55 ];
  }

let clean_text () = Llm.Synthesizer.render (I.Route_map paper_intent)

let test_faults_corrupt () =
  (* Every applicable fault must yield text that either fails to parse
     or fails verification. *)
  let spec = I.spec_of_route_map paper_intent in
  List.iter
    (fun fault ->
      match Llm.Fault_injector.apply fault (clean_text ()) with
      | None -> () (* fault not applicable to this snippet *)
      | Some corrupted -> (
          check
            ("fault changed text: " ^ Llm.Fault_injector.fault_to_string fault)
            true
            (corrupted <> clean_text ());
          match Parser.parse corrupted with
          | Error _ -> () (* syntax fault *)
          | Ok snippet -> (
              match Database.route_maps snippet with
              | [ rm ] ->
                  check
                    ("fault detected: "
                    ^ Llm.Fault_injector.fault_to_string fault)
                    false
                    (Engine.Search_route_policies.verify_stanza snippet rm spec
                    = Engine.Search_route_policies.Verified)
              | _ -> ())))
    Llm.Fault_injector.all_faults

let test_fault_schedule_deterministic () =
  let a = Llm.Fault_injector.schedule ~seed:42 ~faulty_attempts:5 in
  let b = Llm.Fault_injector.schedule ~seed:42 ~faulty_attempts:5 in
  check "same schedule" true (a = b);
  check_int "length" 5 (List.length a)

let test_mock_llm_counts_calls () =
  let llm = Llm.Mock_llm.create () in
  ignore (Llm.Mock_llm.classify llm paper_prompt);
  ignore (Llm.Mock_llm.generate_spec llm paper_prompt);
  let entry = Llm.Prompt_db.retrieve `Route_map in
  ignore
    (Llm.Mock_llm.synthesize llm
       { Llm.Mock_llm.system = entry.Llm.Prompt_db.system;
         few_shot = entry.Llm.Prompt_db.few_shot; user = paper_prompt });
  check_int "total calls" 3 (Llm.Mock_llm.total_calls llm);
  let s = Llm.Mock_llm.stats llm in
  check_int "classify" 1 s.Llm.Mock_llm.classify_calls;
  check_int "spec" 1 s.Llm.Mock_llm.spec_calls;
  check_int "synth" 1 s.Llm.Mock_llm.synthesis_calls

let test_mock_llm_faults_consumed_in_order () =
  let llm =
    Llm.Mock_llm.create
      ~faults:[ Llm.Fault_injector.Flip_action; Llm.Fault_injector.Syntax_error ]
      ()
  in
  let entry = Llm.Prompt_db.retrieve `Route_map in
  let req =
    { Llm.Mock_llm.system = entry.Llm.Prompt_db.system;
      few_shot = entry.Llm.Prompt_db.few_shot; user = paper_prompt }
  in
  let first = Result.get_ok (Llm.Mock_llm.synthesize llm req) in
  let second = Result.get_ok (Llm.Mock_llm.synthesize llm req) in
  let third = Result.get_ok (Llm.Mock_llm.synthesize llm req) in
  check "first flipped" true (first <> clean_text ());
  check "second mangled" true (second <> clean_text ());
  check "third clean" true (third = clean_text ())

(* ------------------------------------------------------------------ *)
(* Spec extraction                                                    *)
(* ------------------------------------------------------------------ *)

let test_spec_generation () =
  let llm = Llm.Mock_llm.create () in
  match Llm.Mock_llm.generate_spec llm paper_prompt with
  | Error m -> Alcotest.failf "spec generation failed: %s" m
  | Ok spec ->
      check "permit" true (spec.Engine.Spec.action = Action.Permit);
      check "sets" true (spec.Engine.Spec.sets = [ Route_map.Set_metric 55 ]);
      (* JSON rendering matches the paper's fields. *)
      let j = Engine.Spec.to_json spec in
      check "has prefix field" true (Json.member "prefix" j <> None);
      check "has community field" true (Json.member "community" j <> None);
      check "has set field" true (Json.member "set" j <> None)

(* ------------------------------------------------------------------ *)
(* Prompts: generated, from the README and CI, and mutated            *)
(* ------------------------------------------------------------------ *)

let gen_acl_intent =
  QCheck.Gen.(
    let gen_addr =
      oneof
        [
          return Acl.Any;
          map (fun k -> Acl.Host (ip (Printf.sprintf "192.168.1.%d" k))) (int_range 1 254);
          oneofl
            [ Acl.addr_of_prefix (pfx "10.0.0.0/8"); Acl.addr_of_prefix (pfx "10.20.0.0/16") ];
        ]
    in
    let gen_port =
      oneof
        [
          return Acl.Any_port;
          map (fun p -> Acl.Eq p) (int_range 0 65535);
          map (fun p -> Acl.Neq p) (int_range 0 65535);
          map (fun p -> Acl.Gt p) (int_range 0 65535);
          map (fun p -> Acl.Lt p) (int_range 0 65535);
          map2 (fun a b -> Acl.Range (min a b, max a b)) (int_range 0 65535)
            (int_range 0 65535);
        ]
    in
    oneofl [ Action.Permit; Action.Deny ] >>= fun acl_action ->
    oneofl [ Packet.Ip; Packet.Tcp; Packet.Udp; Packet.Icmp ] >>= fun protocol ->
    gen_addr >>= fun src ->
    gen_addr >>= fun dst ->
    (if Packet.has_ports protocol then pair gen_port gen_port
     else return (Acl.Any_port, Acl.Any_port))
    >>= fun (src_port, dst_port) ->
    (if protocol = Packet.Tcp then bool else return false) >>= fun established ->
    return { I.acl_action; protocol; src; src_port; dst; dst_port; established })

(* The prompts the README and the CI workflow type. *)
let shipped_prompts =
  [
    paper_prompt;
    "Write a route-map stanza that denies routes originating from AS 65010.";
    "Write a route-map stanza that denies routes containing the prefix \
     100.0.0.0/18 with mask length less than or equal to 23.";
    "Write an access list rule that denies tcp traffic from 10.20.0.0/16 to \
     any destination with destination port 22.";
    "Write an access list rule that permits tcp traffic from anywhere to any \
     destination with destination port 443.";
    "Permit tcp traffic from anywhere to host 10.0.0.5 on port 70000.";
  ]

let gen_prompt =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun i -> I.to_prompt (I.Route_map i)) gen_route_map_intent);
        (2, map (fun a -> I.to_prompt (I.Acl a)) gen_acl_intent);
        (1, oneofl shipped_prompts);
      ])

let put text at middle =
  String.sub text 0 at ^ middle ^ String.sub text at (String.length text - at)

let keywords = Array.of_list (Llm_reference.route_map_keywords @ Llm_reference.acl_keywords)

(* Case flips, list punctuation, runs of blanks, newlines and tabs, and
   keywords of both classes, spliced anywhere: what [words] and the
   classifier must read as the reference does. *)
let text_mutation rng text =
  let n = String.length text in
  let at = Random.State.int rng (n + 1) in
  match Random.State.int rng 5 with
  | 0 when n > 0 ->
      let len = 1 + Random.State.int rng (min 12 (n - min at (n - 1))) in
      let at = min at (n - 1) in
      let flip c =
        if Char.lowercase_ascii c = c then Char.uppercase_ascii c
        else Char.lowercase_ascii c
      in
      String.mapi (fun i c -> if i >= at && i < at + len then flip c else c) text
  | 1 -> put text at [| ","; ";"; "\""; "'"; ", "; "\" "; "'s" |].(Random.State.int rng 7)
  | 2 ->
      put text at
        (String.init (1 + Random.State.int rng 4) (fun _ ->
             [| ' '; '\n'; '\t' |].(Random.State.int rng 3)))
  | _ ->
      let k = keywords.(Random.State.int rng (Array.length keywords)) in
      put text at (if Random.State.bool rng then " " ^ k ^ " " else k)

(* A few keywords of both classes among plain words, so that one
   keyword often decides the verdict. *)
let gen_soup =
  QCheck.Gen.(
    list_size (int_range 1 8)
      (frequency [ (3, oneofa keywords); (1, oneofl [ "the"; "and"; "write"; "10.0.0.0/8" ]) ])
    >|= String.concat " ")

(* Deletions, phrase fragments and spliced numbers at either side of a
   field's width, as [Config_mutations] mutates configs: what the
   pipeline's front halves must survive. *)
let fragments =
  [|
    " port "; " ports "; " to "; " source port "; " destination port ";
    " port above "; " port below "; " port not "; " host "; " from ";
    " anywhere"; " 10.0.0.0/8"; " tcp"; " udp"; " icmp"; " permits ";
    " denies "; " with local preference "; " with MED "; " with tag ";
    " originating from AS "; " passing through AS "; " community ";
    " 65000:1"; ". Their MED value should be set to "; ". Their tag should be set to ";
    ". Their local preference should be set to "; ". The AS path should be prepended with ";
    ". The next hop should be set to "; " with mask length between "; " and ";
    " less than or equal to "; ". "; "\n"; "/"; ":"; ".";
  |]

let splice_numbers =
  [| "0"; "65535"; "65536"; "4294967295"; "4294967296"; "-1"; "18446744073709551616" |]

let intent_mutation = Config_mutations.mutate ~fragments ~numbers:splice_numbers

(* ------------------------------------------------------------------ *)
(* The one-pass text layer against the reference                      *)
(* ------------------------------------------------------------------ *)

module Ref = Llm_reference

(* A number of the intent that no config can hold: what the range
   checks reject and the reference lets through. *)
let out_of_range = function
  | I.Acl a ->
      let port = function
        | Acl.Any_port -> false
        | Acl.Eq n | Acl.Neq n | Acl.Lt n | Acl.Gt n -> n < 0 || n > 65535
        | Acl.Range (lo, hi) -> lo < 0 || hi > 65535 || lo > hi
      in
      port a.I.src_port || port a.I.dst_port
  | I.Route_map i ->
      let bad n = n < 0 || n > 0xFFFF_FFFF in
      List.exists (Option.fold ~none:false ~some:bad)
        [
          i.I.as_path_origin; i.I.as_path_contains; i.I.local_pref; i.I.metric_match;
          i.I.tag_match;
        ]
      || List.exists
           (function
             | Route_map.Set_metric n | Route_map.Set_local_pref n | Route_map.Set_tag n
             | Route_map.Set_weight n ->
                 bad n
             | Route_map.Set_as_path_prepend asns -> List.exists bad asns
             | _ -> false)
           i.I.sets

let prop_same_as_reference =
  QCheck.Test.make ~name:"words, classify and parse read prompts as the reference"
    ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%S")
       (Config_mutations.mutated
          (QCheck.Gen.frequency [ (4, gen_prompt); (1, gen_soup) ])
          text_mutation))
    (fun prompt ->
      let words = Llm.Nl_parser.words prompt and words' = Ref.words prompt in
      if words <> words' then
        QCheck.Test.fail_reportf "words: [%s], reference [%s]"
          (String.concat "; " words) (String.concat "; " words');
      if Llm.Classifier.classify prompt <> Ref.classify prompt then
        QCheck.Test.fail_reportf "classify differs";
      List.for_all
        (fun kind ->
          match (Llm.Nl_parser.parse kind prompt, Ref.parse kind prompt) with
          | Ok i, Ok i' -> i = i' || QCheck.Test.fail_reportf "parsed intents differ"
          | Error e, Error e' ->
              Llm.Nl_parser.error_message e = Ref.error_message e'
              || QCheck.Test.fail_reportf "errors differ: %s / %s"
                   (Llm.Nl_parser.error_message e) (Ref.error_message e')
          | Error (Llm.Nl_parser.Out_of_range _), Ok i' when out_of_range i' -> true
          | Error e, Ok _ ->
              QCheck.Test.fail_reportf "parse fails (%s), the reference does not"
                (Llm.Nl_parser.error_message e)
          | Ok _, Error e' ->
              QCheck.Test.fail_reportf "the reference fails (%s), parse does not"
                (Ref.error_message e'))
        [ `Route_map; `Acl ])

let test_range_errors () =
  let acl_error p =
    match Llm.Nl_parser.parse `Acl p with
    | Error (Llm.Nl_parser.Out_of_range m) -> m
    | Error e -> Alcotest.failf "not a range error: %s" (Llm.Nl_parser.error_message e)
    | Ok _ -> Alcotest.failf "accepted: %s" p
  in
  let rm_error p =
    match Llm.Nl_parser.parse_route_map p with
    | Error (Llm.Nl_parser.Out_of_range m) -> m
    | Error e -> Alcotest.failf "not a range error: %s" (Llm.Nl_parser.error_message e)
    | Ok _ -> Alcotest.failf "accepted: %s" p
  in
  let check_msg = Alcotest.(check string) in
  let to_host = "Permit tcp traffic from anywhere to host 10.0.0.5 " in
  check_msg "port" "port 70000 is out of range 0-65535" (acl_error (to_host ^ "on port 70000."));
  check_msg "negative port" "port -5 is out of range 0-65535" (acl_error (to_host ^ "on port -5."));
  check_msg "source port" "port 65536 is out of range 0-65535"
    (acl_error (to_host ^ "with source port 65536."));
  check_msg "empty range" "port range 900 80 is empty"
    (acl_error (to_host ^ "with destination ports 900 to 80."));
  check "icmp drops its ports" true
    (Result.is_ok
       (Llm.Nl_parser.parse `Acl
          "Permit icmp traffic from anywhere to host 10.0.0.5 on port 70000."));
  check_msg "local preference" "local-preference 99999999999 is out of range 0-4294967295"
    (rm_error "Permit routes with local preference 99999999999.");
  check_msg "set metric" "metric 4294967296 is out of range 0-4294967295"
    (rm_error "Permit routes. Their MED value should be set to 4294967296.");
  check_msg "match tag" "tag -1 is out of range 0-4294967295"
    (rm_error "Permit routes with tag -1.");
  check_msg "origin AS" "AS -65535 is out of range 0-4294967295"
    (rm_error "Deny routes originating from AS -65535.");
  check_msg "set weight" "weight -1 is out of range 0-4294967295"
    (rm_error "Permit routes. Their weight should be set to -1.");
  check_msg "prepended AS" "AS -1 is out of range 0-4294967295"
    (rm_error "Permit routes. The AS path should be prepended with 65000 -1.");
  check "edges are in range" true
    (Result.is_ok
       (Llm.Nl_parser.parse_route_map
          "Permit routes with local preference 4294967295. Their tag should be set to 0."))

(* ------------------------------------------------------------------ *)
(* Mutated intents: located errors, never exceptions                  *)
(* ------------------------------------------------------------------ *)

let demo_db =
  lazy (Result.get_ok (Parser.parse (Config_mutations.read_file "../examples/batch_demo.conf")))

let prop_mutated_intents =
  QCheck.Test.make ~name:"mutated intents give Ok or Error, never an exception"
    ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%S")
       (Config_mutations.mutated gen_prompt intent_mutation))
    (fun prompt ->
      let db = Lazy.force demo_db and max_attempts = Clarify.Pipeline.default_max_attempts in
      let raises what f =
        match f () with
        | _ -> false
        | exception e ->
            QCheck.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)
      in
      not
        (raises "classify" (fun () -> Llm.Classifier.classify prompt)
        || raises "parse route-map" (fun () -> Llm.Nl_parser.parse `Route_map prompt)
        || raises "parse acl" (fun () -> Llm.Nl_parser.parse `Acl prompt)
        || raises "route_map_front" (fun () ->
               Clarify.Pipeline.route_map_front ~llm:(Llm.Mock_llm.create ())
                 ~max_attempts ~db ~target:"ISP_OUT" ~prompt)
        || raises "acl_front" (fun () ->
               Clarify.Pipeline.acl_front ~llm:(Llm.Mock_llm.create ()) ~max_attempts
                 ~db ~target:"LAB_EDGE" ~prompt)))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "llm"
    [
      ( "classifier",
        [ Alcotest.test_case "classification" `Quick test_classifier ] );
      ( "nl-parser",
        [
          Alcotest.test_case "paper prompt" `Quick test_parse_paper_prompt;
          Alcotest.test_case "variants" `Quick test_parse_variants;
          Alcotest.test_case "rejects nonsense" `Quick test_parse_rejects;
          Alcotest.test_case "acl prompt" `Quick test_parse_acl_prompt;
          q prop_render_parse_roundtrip;
        ] );
      ( "synthesizer",
        [ q prop_synthesized_config_verifies ] );
      ( "faults",
        [
          Alcotest.test_case "faults break verification" `Quick test_faults_corrupt;
          Alcotest.test_case "deterministic schedule" `Quick
            test_fault_schedule_deterministic;
          Alcotest.test_case "call accounting" `Quick test_mock_llm_counts_calls;
          Alcotest.test_case "fault order" `Quick
            test_mock_llm_faults_consumed_in_order;
        ] );
      ( "spec-gen",
        [ Alcotest.test_case "paper spec" `Quick test_spec_generation ] );
      ( "equivalence",
        [
          q prop_same_as_reference;
          Alcotest.test_case "range errors" `Quick test_range_errors;
        ] );
      ("mutations", [ q prop_mutated_intents ]);
    ]
