//! Inputs derived from `--seed`. Everything here is a pure function of
//! the seed: the same seed gives the same modules, arguments and texts.

use llva_conform::gen::{generate, GenConfig, TestCase};
use llva_conform::rng::Rng;
use llva_core::layout::TargetConfig;
use llva_core::module::Module;
use std::collections::HashSet;

/// Generated modules per `build` round.
pub const GENERATED_PER_ROUND: u64 = 32;

/// Larger than the conformance default, so the passes see more helpers,
/// longer bodies and more memory traffic than the 17 hand-written
/// programs give them.
pub fn generated_modules(seed: u64) -> Vec<TestCase> {
    let cfg = GenConfig {
        max_helpers: 6,
        max_steps: 60,
        num_globals: 6,
        array_len: 32,
        num_slots: 4,
    };
    (0..GENERATED_PER_ROUND)
        .map(|i| generate(seed.wrapping_add(i), &cfg))
        .collect()
}

/// The service module, compiled from `bench/programs/svc.mc`.
pub fn service_module() -> Module {
    llva_minic::compile(
        include_str!("../programs/svc.mc"),
        "svc",
        TargetConfig::default(),
    )
    .expect("bench/programs/svc.mc compiles")
}

/// The value of `salt` in `svc.mc`; it appears nowhere else in the
/// module's text, so rewriting it yields a distinct, valid module.
const SALT: &str = "1000003";

/// Argument pairs for `tiny(a, b)`, per connection.
pub fn call_args(seed: u64, connection: u64, count: usize) -> Vec<[u64; 2]> {
    let mut rng = Rng::new(seed ^ (connection + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..count)
        .map(|_| {
            [
                rng.range(-10_000, 10_000) as u64,
                rng.range(-10_000, 10_000) as u64,
            ]
        })
        .collect()
}

/// An endless supply of module texts the service has never seen: the
/// service module's text with `salt` rewritten. The salts of one
/// connection ascend from a seeded base and the bases of different
/// connections are 2^20 apart, so no two texts of a run are equal; `next`
/// asserts it anyway.
pub struct TextPool {
    template: String,
    next_salt: u64,
    seen: HashSet<u64>,
}

impl TextPool {
    pub fn new(template: &str, seed: u64, connection: u64) -> TextPool {
        assert_eq!(
            template.matches(SALT).count(),
            1,
            "salt must appear exactly once in the module text"
        );
        let base = Rng::new(seed ^ 0x5A17).range(0, 1 << 9) as u64;
        TextPool {
            template: template.to_string(),
            next_salt: ((base << 2 | connection) << 20) + 1,
            seen: HashSet::new(),
        }
    }

    pub fn next_text(&mut self) -> String {
        let salt = self.next_salt;
        self.next_salt += 1;
        assert!(
            self.seen.insert(salt),
            "module text repeated within a slice (salt {salt})"
        );
        self.template.replace(SALT, &salt.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llva_core::printer::print_module;

    #[test]
    fn generated_modules_are_a_pure_function_of_the_seed() {
        let text = |seed| -> Vec<String> {
            generated_modules(seed)
                .iter()
                .map(|c| print_module(&c.module))
                .collect()
        };
        assert_eq!(text(7), text(7));
        assert_ne!(text(7), text(8));
        assert_eq!(text(7).len(), GENERATED_PER_ROUND as usize);
    }

    #[test]
    fn call_args_depend_on_seed_and_connection() {
        assert_eq!(call_args(3, 0, 16), call_args(3, 0, 16));
        assert_ne!(call_args(3, 0, 16), call_args(3, 1, 16));
        assert_ne!(call_args(3, 0, 16), call_args(4, 0, 16));
    }

    #[test]
    fn pool_texts_never_repeat_and_connections_are_disjoint() {
        let template = print_module(&service_module());
        let mut a = TextPool::new(&template, 11, 0);
        let mut b = TextPool::new(&template, 11, 1);
        let mut all = HashSet::new();
        for _ in 0..500 {
            assert!(all.insert(a.next_text()));
            assert!(all.insert(b.next_text()));
        }
        // same seed, same texts
        assert_eq!(
            TextPool::new(&template, 11, 0).next_text(),
            TextPool::new(&template, 11, 0).next_text()
        );
        assert_ne!(
            TextPool::new(&template, 11, 0).next_text(),
            TextPool::new(&template, 12, 0).next_text()
        );
    }

    #[test]
    #[should_panic(expected = "module text repeated")]
    fn a_repeated_text_is_caught() {
        let mut pool = TextPool::new(&print_module(&service_module()), 1, 0);
        pool.next_text();
        pool.next_salt -= 1;
        pool.next_text();
    }

    #[test]
    fn pool_texts_parse_and_differ_only_in_the_salt() {
        let template = print_module(&service_module());
        let text = TextPool::new(&template, 5, 1).next_text();
        let module = llva_core::parser::parse_module(&text).expect("pool text parses");
        llva_core::verifier::verify_module(&module).expect("pool text verifies");
        assert_eq!(text.lines().filter(|l| !template.contains(*l)).count(), 1);
    }
}
