#include "datasets/yago.h"

#include <array>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/strings.h"

namespace gqopt {
namespace {

constexpr const char* kPerson = "PERSON";
constexpr const char* kProperty = "PROPERTY";
constexpr const char* kCity = "CITY";
constexpr const char* kRegion = "REGION";
constexpr const char* kCountry = "COUNTRY";
constexpr const char* kOrganisation = "ORGANISATION";
constexpr const char* kEvent = "EVENT";

// The full edge-relation inventory: 88 relations over the 7 node labels.
// The first block is the core used by the workload queries; the remainder
// fills the schema out to YAGO's breadth (Tab 3: #ER = 88) with
// YAGO2-style predicate names.
struct EdgeDef {
  const char* label;
  const char* source;
  const char* target;
};

// 92 entries over 88 distinct edge labels (isLocatedIn spans 5 label
// pairs), matching Tab 3's #ER = 88.
constexpr std::array<EdgeDef, 92> kEdgeDefs = {{
    // -- Core relations used by the experiment queries -----------------
    {"isMarriedTo", kPerson, kPerson},
    {"livesIn", kPerson, kCity},
    {"owns", kPerson, kProperty},
    {"isLocatedIn", kProperty, kCity},
    {"isLocatedIn", kCity, kRegion},
    {"isLocatedIn", kRegion, kCountry},
    {"isLocatedIn", kOrganisation, kCity},
    {"isLocatedIn", kEvent, kCity},
    {"dealsWith", kCountry, kCountry},
    {"wasBornIn", kPerson, kCity},
    {"diedIn", kPerson, kCity},
    {"hasChild", kPerson, kPerson},
    {"influences", kPerson, kPerson},
    {"graduatedFrom", kPerson, kOrganisation},
    {"worksAt", kPerson, kOrganisation},
    {"participatedIn", kPerson, kEvent},
    {"isCitizenOf", kPerson, kCountry},
    {"happenedIn", kEvent, kCity},
    // -- Breadth relations (schema completeness; lightly populated) ----
    {"actedIn", kPerson, kEvent},
    {"created", kPerson, kProperty},
    {"directed", kPerson, kEvent},
    {"edited", kPerson, kEvent},
    {"wroteMusicFor", kPerson, kEvent},
    {"playsFor", kPerson, kOrganisation},
    {"isAffiliatedTo", kPerson, kOrganisation},
    {"isLeaderOf", kPerson, kOrganisation},
    {"isKnownFor", kPerson, kEvent},
    {"isInterestedIn", kPerson, kEvent},
    {"hasAcademicAdvisor", kPerson, kPerson},
    {"hasWonPrize", kPerson, kEvent},
    {"holdsPoliticalPosition", kPerson, kOrganisation},
    {"isPoliticianOf", kPerson, kCountry},
    {"hasCapital", kCountry, kCity},
    {"hasCurrency", kCountry, kProperty},
    {"hasOfficialLanguage", kCountry, kProperty},
    {"hasNeighbor", kCountry, kCountry},
    {"imports", kCountry, kProperty},
    {"exports", kCountry, kProperty},
    {"isConnectedTo", kCity, kCity},
    {"hasAirport", kCity, kProperty},
    {"hasMayor", kCity, kPerson},
    {"hasUniversity", kCity, kOrganisation},
    {"twinnedWith", kCity, kCity},
    {"hasHeadquarter", kOrganisation, kCity},
    {"hasSubsidiary", kOrganisation, kOrganisation},
    {"ownsCompany", kOrganisation, kOrganisation},
    {"hasFounder", kOrganisation, kPerson},
    {"hasCeo", kOrganisation, kPerson},
    {"sponsors", kOrganisation, kEvent},
    {"organizes", kOrganisation, kEvent},
    {"hasVenue", kEvent, kProperty},
    {"precededBy", kEvent, kEvent},
    {"followedBy", kEvent, kEvent},
    {"hasWinner", kEvent, kPerson},
    {"commemorates", kEvent, kPerson},
    {"hasOwner", kProperty, kPerson},
    {"hasArchitect", kPerson, kProperty},
    {"renovated", kPerson, kProperty},
    {"inherited", kPerson, kProperty},
    {"soldTo", kPerson, kPerson},
    {"boughtFrom", kPerson, kPerson},
    {"mentors", kPerson, kPerson},
    {"succeeds", kPerson, kPerson},
    {"collaboratesWith", kPerson, kPerson},
    {"playsAgainst", kOrganisation, kOrganisation},
    {"mergedWith", kOrganisation, kOrganisation},
    {"investsIn", kOrganisation, kProperty},
    {"rents", kOrganisation, kProperty},
    {"regulates", kCountry, kOrganisation},
    {"recognizes", kCountry, kCountry},
    {"administrates", kRegion, kCity},
    {"borders", kRegion, kRegion},
    {"hasGovernor", kRegion, kPerson},
    {"hasParliament", kRegion, kOrganisation},
    {"hostedEvent", kRegion, kEvent},
    {"celebrates", kCity, kEvent},
    {"maintains", kCity, kProperty},
    {"taxes", kCountry, kProperty},
    {"protects", kCountry, kProperty},
    {"visited", kPerson, kCity},
    {"studiedIn", kPerson, kCity},
    {"performedIn", kPerson, kCity},
    {"retiredTo", kPerson, kRegion},
    {"campaignedIn", kPerson, kRegion},
    {"foundedCity", kPerson, kCity},
    {"documentedBy", kEvent, kOrganisation},
    {"archivedBy", kProperty, kOrganisation},
    {"valuedAt", kProperty, kProperty},
    {"adjacentTo", kProperty, kProperty},
    {"hasAnthem", kCountry, kProperty},
    {"hasEmbassyIn", kCountry, kCity},
    {"hasMotto", kOrganisation, kProperty},
}};

}  // namespace

GraphSchema YagoSchema() {
  GraphSchema schema;
  schema.AddNodeLabel(kPerson);
  schema.AddNodeLabel(kProperty);
  schema.AddNodeLabel(kCity);
  schema.AddNodeLabel(kRegion);
  schema.AddNodeLabel(kCountry);
  schema.AddNodeLabel(kOrganisation);
  schema.AddNodeLabel(kEvent);
  (void)schema.AddProperty(kPerson, "name", PropertyType::kString);
  (void)schema.AddProperty(kPerson, "age", PropertyType::kInt);
  (void)schema.AddProperty(kProperty, "address", PropertyType::kString);
  (void)schema.AddProperty(kCity, "name", PropertyType::kString);
  (void)schema.AddProperty(kRegion, "name", PropertyType::kString);
  (void)schema.AddProperty(kCountry, "name", PropertyType::kString);
  (void)schema.AddProperty(kOrganisation, "name", PropertyType::kString);
  (void)schema.AddProperty(kEvent, "name", PropertyType::kString);
  for (const EdgeDef& def : kEdgeDefs) {
    schema.AddEdge(def.source, def.label, def.target);
  }
  return schema;
}

PropertyGraph GenerateYago(const YagoConfig& config) {
  Rng rng(config.seed);
  PropertyGraph graph;

  // Entity-count weights mirror the real YAGO's shape: location facts
  // (isLocatedIn over properties/cities/organisations/events) dominate the
  // edge volume, while the relations queries anchor on (owns,
  // participatedIn, graduatedFrom, ...) touch only a small fraction of
  // persons — the selectivity that schema-enriched plans exploit (Fig 17).
  size_t n_person = config.persons;
  size_t n_property = std::max<size_t>(8, n_person * 5 / 2);
  size_t n_city = std::max<size_t>(6, n_person / 8);
  size_t n_region = std::max<size_t>(4, n_person / 32);
  size_t n_country = std::max<size_t>(3, n_person / 128);
  size_t n_org = std::max<size_t>(4, n_person / 2);
  size_t n_event = std::max<size_t>(4, n_person);

  std::vector<NodeId> persons, properties, cities, regions, countries, orgs,
      events;
  for (size_t i = 0; i < n_person; ++i) {
    persons.push_back(graph.AddNode(
        kPerson, {{"name", Value::String(Numbered("p", i))},
                  {"age", Value::Int(rng.UniformRange(18, 90))}}));
  }
  for (size_t i = 0; i < n_property; ++i) {
    properties.push_back(graph.AddNode(
        kProperty,
        {{"address", Value::String(Numbered("addr", i))}}));
  }
  for (size_t i = 0; i < n_city; ++i) {
    cities.push_back(graph.AddNode(
        kCity, {{"name", Value::String(Numbered("city", i))}}));
  }
  for (size_t i = 0; i < n_region; ++i) {
    regions.push_back(graph.AddNode(
        kRegion, {{"name", Value::String(Numbered("region", i))}}));
  }
  for (size_t i = 0; i < n_country; ++i) {
    countries.push_back(graph.AddNode(
        kCountry, {{"name", Value::String(Numbered("country", i))}}));
  }
  for (size_t i = 0; i < n_org; ++i) {
    orgs.push_back(graph.AddNode(
        kOrganisation,
        {{"name", Value::String(Numbered("org", i))}}));
  }
  for (size_t i = 0; i < n_event; ++i) {
    events.push_back(graph.AddNode(
        kEvent, {{"name", Value::String(Numbered("event", i))}}));
  }

  auto add = [&graph](NodeId src, const char* label, NodeId tgt) {
    (void)graph.AddEdge(src, label, tgt);
  };

  // Geography backbone: the acyclic isLocatedIn chain.
  for (NodeId p : properties) add(p, "isLocatedIn", rng.Pick(cities));
  for (NodeId c : cities) add(c, "isLocatedIn", rng.Pick(regions));
  for (NodeId r : regions) add(r, "isLocatedIn", rng.Pick(countries));
  for (NodeId o : orgs) add(o, "isLocatedIn", rng.Pick(cities));
  for (NodeId e : events) add(e, "isLocatedIn", rng.Pick(cities));
  for (NodeId e : events) add(e, "happenedIn", rng.Pick(cities));

  // dealsWith: sparse cyclic relation between countries (most countries
  // deal with nobody, so queries ending in dealsWith+ stay selective).
  for (NodeId c : countries) {
    if (!rng.Chance(0.3)) continue;
    size_t degree = 1 + rng.Uniform(2);
    for (size_t i = 0; i < degree; ++i) {
      add(c, "dealsWith", rng.Pick(countries));
    }
  }

  // Person-centric relations. Query-anchor relations (owns,
  // graduatedFrom, participatedIn, influences) are sparse: only a small
  // fraction of persons carry them.
  for (NodeId p : persons) {
    if (rng.Chance(0.9)) add(p, "livesIn", rng.Pick(cities));
    add(p, "wasBornIn", rng.Pick(cities));
    if (rng.Chance(0.25)) add(p, "diedIn", rng.Pick(cities));
    if (rng.Chance(0.08)) {
      size_t owned = 1 + rng.Uniform(2);
      for (size_t i = 0; i < owned; ++i) {
        add(p, "owns", rng.Pick(properties));
      }
    }
    if (rng.Chance(0.45)) {
      NodeId spouse = rng.Pick(persons);
      add(p, "isMarriedTo", spouse);
      add(spouse, "isMarriedTo", p);
    }
    size_t children = rng.Uniform(3);
    for (size_t i = 0; i < children; ++i) {
      add(p, "hasChild", persons[rng.Skewed(persons.size())]);
    }
    if (rng.Chance(0.1)) {
      add(p, "influences", persons[rng.Skewed(persons.size())]);
    }
    if (rng.Chance(0.12)) add(p, "graduatedFrom", rng.Pick(orgs));
    if (rng.Chance(0.8)) add(p, "worksAt", rng.Pick(orgs));
    if (rng.Chance(0.1)) add(p, "participatedIn", rng.Pick(events));
    add(p, "isCitizenOf", rng.Pick(countries));
  }

  // Breadth relations: sprinkle a few edges per relation so every one of
  // the 88 tables is non-empty (index 18 onward in kEdgeDefs).
  auto pool = [&](std::string_view label) -> const std::vector<NodeId>& {
    if (label == kPerson) return persons;
    if (label == kProperty) return properties;
    if (label == kCity) return cities;
    if (label == kRegion) return regions;
    if (label == kCountry) return countries;
    if (label == kOrganisation) return orgs;
    return events;
  };
  for (size_t d = 18; d < kEdgeDefs.size(); ++d) {
    const EdgeDef& def = kEdgeDefs[d];
    const std::vector<NodeId>& sources = pool(def.source);
    const std::vector<NodeId>& targets = pool(def.target);
    size_t count = std::max<size_t>(2, n_person / 40);
    for (size_t i = 0; i < count; ++i) {
      add(rng.Pick(sources), def.label, rng.Pick(targets));
    }
  }

  graph.Finalize();
  return graph;
}

}  // namespace gqopt
