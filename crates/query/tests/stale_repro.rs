//! Regression test: after a session aborts mid-rebuild (a dependency
//! re-executed with a new fingerprint, then a downstream task failed), the
//! next session must not serve the failed task's dependents from the store
//! — the recorded dependency fingerprints no longer match the memoized
//! ones, and bottom-up invalidation has to notice that.

use sfcc_query::{Ctx, Engine, QueryError, TaskKey, TaskSpec};
use std::collections::HashMap;
use std::fmt;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Task {
    Get,
    Abs,
    Dbl,
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl TaskKey for Task {
    fn parse(label: &str) -> Option<Task> {
        [Task::Get, Task::Abs, Task::Dbl]
            .into_iter()
            .find(|task| task.to_string() == label)
    }
}

struct Calc {
    a: i64,
    fail_abs: bool,
}

impl TaskSpec for Calc {
    type Key = Task;
    type Value = i64;
    type Error = String;

    fn execute(
        &mut self,
        key: &Task,
        ctx: &mut Ctx<'_, Self>,
    ) -> Result<i64, QueryError<Task, String>> {
        match key {
            Task::Get => {
                ctx.input(self, "a");
                Ok(self.a)
            }
            Task::Abs => {
                if self.fail_abs {
                    return Err(QueryError::Task("abs failed".into()));
                }
                Ok(ctx.require(self, &Task::Get)?.abs())
            }
            Task::Dbl => Ok(ctx.require(self, &Task::Abs)? * 2),
        }
    }

    fn fingerprint(&self, _key: &Task, value: &i64) -> u64 {
        *value as u64
    }

    fn input_stamp(&mut self, _input: &str) -> u64 {
        self.a as u64
    }
}

#[test]
fn retry_after_failed_rebuild_serves_stale_value() {
    let mut spec = Calc {
        a: 2,
        fail_abs: false,
    };
    let mut engine = Engine::new();

    // Session 1: clean build. Dbl = |2| * 2 = 4.
    engine.begin_session(&mut spec);
    assert_eq!(engine.require(&mut spec, &Task::Dbl).unwrap(), 4);

    // Session 2: input changes to -3, but Abs fails -> build aborts.
    spec.a = -3;
    spec.fail_abs = true;
    engine.begin_session(&mut spec);
    assert!(engine.require(&mut spec, &Task::Dbl).is_err());

    // Session 3: no edits, failure cause removed (retry). Correct answer 6.
    spec.fail_abs = false;
    engine.begin_session(&mut spec);
    let v = engine.require(&mut spec, &Task::Dbl).unwrap();
    let _ = HashMap::<u8, u8>::new();
    assert_eq!(v, 6, "stale memoized value served after failed rebuild");
}
