//! Deterministic synthetic social-network generator.
//!
//! The paper evaluates on LDBC SNB SF10, which needs the official (large,
//! external) data generator. This module substitutes a deterministic
//! generator that reproduces the *structural properties* the interactive
//! read queries depend on — a skewed friendship (KNOWS) degree distribution,
//! message fan-out per person, reply chains, and person→city→country
//! placement — at laptop scale, parameterised by a scale factor.

use raqlet_common::SplitMix64;

/// One person row.
#[derive(Debug, Clone)]
pub struct Person {
    pub id: i64,
    pub first_name: String,
    pub last_name: String,
    pub gender: String,
    pub birthday: i64,
    pub creation_date: i64,
    pub location_ip: String,
    pub browser_used: String,
    /// City id the person is located in.
    pub city: i64,
}

/// One message (post or comment) row.
#[derive(Debug, Clone)]
pub struct Message {
    pub id: i64,
    pub creation_date: i64,
    pub content: String,
    pub length: i64,
    /// Creator person id.
    pub creator: i64,
    /// Message this one replies to, if any.
    pub reply_of: Option<i64>,
    /// Tag ids attached to the message.
    pub tags: Vec<i64>,
}

/// The generated social network.
#[derive(Debug, Clone, Default)]
pub struct SocialNetwork {
    pub persons: Vec<Person>,
    pub cities: Vec<(i64, String)>,
    pub countries: Vec<(i64, String)>,
    /// (city, country) placement.
    pub city_in_country: Vec<(i64, i64)>,
    /// (person, person, creationDate) friendships, stored once per direction
    /// they were created in (KNOWS is traversed undirected by the queries).
    pub knows: Vec<(i64, i64, i64)>,
    /// (follower, followee, creationDate) follows — the second, sparser
    /// person-to-person relation, used by the `:KNOWS|FOLLOWS` alternative
    /// relationship-type queries.
    pub follows: Vec<(i64, i64, i64)>,
    pub messages: Vec<Message>,
    pub tags: Vec<(i64, String)>,
    /// (person, message, creationDate) likes.
    pub likes: Vec<(i64, i64, i64)>,
}

impl SocialNetwork {
    /// Total number of entities (a rough dataset-size indicator for reports).
    pub fn total_entities(&self) -> usize {
        self.persons.len()
            + self.cities.len()
            + self.countries.len()
            + self.knows.len()
            + self.follows.len()
            + self.messages.len()
            + self.likes.len()
    }

    /// The id of a person guaranteed to exist and to have friends and
    /// messages — used as the parameter of the benchmark queries.
    pub fn sample_person(&self) -> i64 {
        self.persons.first().map(|p| p.id).unwrap_or(0)
    }
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Scale factor: person count is `100 × scale`, messages `6 ×` persons.
    pub scale: f64,
    /// RNG seed (the generator is fully deterministic for a given seed).
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig { scale: 1.0, seed: 42 }
    }
}

const FIRST_NAMES: &[&str] =
    &["Alice", "Bob", "Carol", "Dave", "Erin", "Frank", "Grace", "Heidi", "Ivan", "Judy"];
const LAST_NAMES: &[&str] =
    &["Smith", "Jones", "Brown", "Wilson", "Taylor", "Khan", "Li", "Garcia", "Muller", "Rossi"];
const BROWSERS: &[&str] = &["Firefox", "Chrome", "Safari", "Edge"];
const CITY_NAMES: &[&str] =
    &["Edinburgh", "Glasgow", "London", "Paris", "Berlin", "Madrid", "Rome", "Vienna"];
const COUNTRY_NAMES: &[&str] =
    &["United_Kingdom", "France", "Germany", "Spain", "Italy", "Austria"];
const TAG_NAMES: &[&str] = &["databases", "graphs", "datalog", "compilers", "recursion", "rust"];

/// Generate a social network.
pub fn generate(config: &GeneratorConfig) -> SocialNetwork {
    let mut rng = SplitMix64::seed_from_u64(config.seed);
    let person_count = ((100.0 * config.scale).round() as i64).max(10);
    let message_count = person_count * 6;

    let mut network = SocialNetwork::default();

    // Places.
    for (i, name) in COUNTRY_NAMES.iter().enumerate() {
        network.countries.push((9000 + i as i64, (*name).to_string()));
    }
    for (i, name) in CITY_NAMES.iter().enumerate() {
        let id = 8000 + i as i64;
        network.cities.push((id, (*name).to_string()));
        let country = network.countries[i % network.countries.len()].0;
        network.city_in_country.push((id, country));
    }
    for (i, name) in TAG_NAMES.iter().enumerate() {
        network.tags.push((7000 + i as i64, (*name).to_string()));
    }

    // Persons.
    for i in 0..person_count {
        let id = 1000 + i;
        let city = network.cities[rng.gen_index(0..network.cities.len())].0;
        network.persons.push(Person {
            id,
            first_name: FIRST_NAMES[rng.gen_index(0..FIRST_NAMES.len())].to_string(),
            last_name: LAST_NAMES[rng.gen_index(0..LAST_NAMES.len())].to_string(),
            gender: if rng.gen_bool(0.5) { "male" } else { "female" }.to_string(),
            birthday: 19_600_101 + rng.gen_range(0..400_000),
            creation_date: 20_100_101 + rng.gen_range(0..90_000),
            location_ip: format!(
                "{}.{}.{}.{}",
                rng.gen_range(1..255),
                rng.gen_range(0..255),
                rng.gen_range(0..255),
                rng.gen_range(1..255)
            ),
            browser_used: BROWSERS[rng.gen_index(0..BROWSERS.len())].to_string(),
            city,
        });
    }

    // Friendships: preferential attachment-ish — earlier persons accumulate
    // more friends, giving the skewed degree distribution SNB exhibits.
    for i in 1..person_count {
        let friends = 2 + (rng.gen_range(0..6) * rng.gen_range(0..2));
        for _ in 0..friends {
            let j = rng.gen_range(0..i);
            let a = 1000 + i;
            let b = 1000 + j;
            let date = 20_110_101 + rng.gen_range(0..80_000);
            if !network.knows.iter().any(|(x, y, _)| (*x == a && *y == b) || (*x == b && *y == a)) {
                network.knows.push((a, b, date));
            }
        }
    }

    // Follows: a sparser directed person→person relation (roughly half the
    // density of KNOWS, no symmetry requirement, at most one followee per
    // person so every edge is unique by construction). The first person
    // always follows someone, keeping the benchmark parameter useful.
    for i in 0..person_count {
        if i != 0 && !rng.gen_bool(0.5) {
            continue;
        }
        let j =
            if i == 0 { rng.gen_range(1..person_count) } else { rng.gen_range(0..person_count) };
        if i == j {
            continue;
        }
        let date = 20_110_101 + rng.gen_range(0..80_000);
        network.follows.push((1000 + i, 1000 + j, date));
    }

    // Messages: skew creators toward low ids (active users), occasional
    // replies to earlier messages, one or two tags.
    for i in 0..message_count {
        let id = 100_000 + i;
        let creator_idx =
            (rng.gen_range(0..person_count) * rng.gen_range(1..4) / 3).min(person_count - 1);
        let creator = 1000 + creator_idx;
        let reply_of =
            if i > 0 && rng.gen_bool(0.4) { Some(100_000 + rng.gen_range(0..i)) } else { None };
        let tag_count = rng.gen_range(0..3);
        let tags =
            (0..tag_count).map(|_| network.tags[rng.gen_index(0..network.tags.len())].0).collect();
        let length = rng.gen_range(10..200);
        network.messages.push(Message {
            id,
            creation_date: 20_120_101 + rng.gen_range(0..70_000),
            content: format!("message-{id}"),
            length,
            creator,
            reply_of,
            tags,
        });
    }

    // Likes.
    for _ in 0..(message_count / 2) {
        let person = 1000 + rng.gen_range(0..person_count);
        let message = 100_000 + rng.gen_range(0..message_count);
        let date = 20_130_101 + rng.gen_range(0..60_000);
        if !network.likes.iter().any(|(p, m, _)| *p == person && *m == message) {
            network.likes.push((person, message, date));
        }
    }

    network
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = generate(&GeneratorConfig::default());
        let b = generate(&GeneratorConfig::default());
        assert_eq!(a.persons.len(), b.persons.len());
        assert_eq!(a.knows, b.knows);
        assert_eq!(a.messages.len(), b.messages.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&GeneratorConfig { seed: 1, ..Default::default() });
        let b = generate(&GeneratorConfig { seed: 2, ..Default::default() });
        assert_ne!(a.knows, b.knows);
    }

    #[test]
    fn scale_controls_person_count() {
        let small = generate(&GeneratorConfig { scale: 0.5, ..Default::default() });
        let large = generate(&GeneratorConfig { scale: 2.0, ..Default::default() });
        assert_eq!(small.persons.len(), 50);
        assert_eq!(large.persons.len(), 200);
        assert!(large.total_entities() > small.total_entities());
    }

    #[test]
    fn every_person_has_a_city_and_every_city_a_country() {
        let net = generate(&GeneratorConfig::default());
        for p in &net.persons {
            assert!(net.cities.iter().any(|(id, _)| *id == p.city));
        }
        for (city, _) in &net.cities {
            assert!(net.city_in_country.iter().any(|(c, _)| c == city));
        }
    }

    #[test]
    fn friendships_are_unique_and_reference_existing_persons() {
        let net = generate(&GeneratorConfig::default());
        for (a, b, _) in &net.knows {
            assert!(net.persons.iter().any(|p| p.id == *a));
            assert!(net.persons.iter().any(|p| p.id == *b));
            assert_ne!(a, b);
        }
        let mut pairs: Vec<(i64, i64)> =
            net.knows.iter().map(|(a, b, _)| (*a.min(b), *a.max(b))).collect();
        let before = pairs.len();
        pairs.sort();
        pairs.dedup();
        assert_eq!(before, pairs.len(), "duplicate friendships generated");
    }

    #[test]
    fn messages_reference_existing_creators_and_earlier_replies() {
        let net = generate(&GeneratorConfig::default());
        for m in &net.messages {
            assert!(net.persons.iter().any(|p| p.id == m.creator));
            if let Some(parent) = m.reply_of {
                assert!(parent < m.id);
            }
        }
    }

    #[test]
    fn sample_person_exists() {
        let net = generate(&GeneratorConfig::default());
        let id = net.sample_person();
        assert!(net.persons.iter().any(|p| p.id == id));
    }
}
