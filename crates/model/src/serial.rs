//! A one-way text dump of a schedule, for failure reports and eyeballing.
//!
//! Nothing parses this form. A compiled plan persists as a `binser` plan
//! file (see [`crate::binser`]); the dump exists so a fuzz failure or a
//! small schedule can be printed one event per line:
//!
//! ```text
//! lowband-schedule v1
//! n <nodes> capacity <c>
//! round <count>
//! <src> <src_key:hex> <dst> <dst_key:hex> <o|a>
//! …
//! compute <count>
//! mul <node> <dst:hex> <lhs:hex> <rhs:hex>
//! …
//! end
//! ```

use std::io::Write;

use crate::schedule::{LocalOp, Merge, Round, Step};
use crate::Schedule;

/// Write a schedule in the text dump format.
pub fn write_schedule<W: Write>(schedule: &Schedule, mut w: W) -> std::io::Result<()> {
    writeln!(w, "lowband-schedule v1")?;
    writeln!(w, "n {} capacity {}", schedule.n(), schedule.capacity())?;
    for step in schedule.steps() {
        match step {
            Step::Comm(Round { transfers }) => {
                writeln!(w, "round {}", transfers.len())?;
                for t in transfers {
                    writeln!(
                        w,
                        "{} {:x} {} {:x} {}",
                        t.src.0,
                        t.src_key.to_raw(),
                        t.dst.0,
                        t.dst_key.to_raw(),
                        match t.merge {
                            Merge::Overwrite => "o",
                            Merge::Add => "a",
                        }
                    )?;
                }
            }
            Step::Compute(ops) => {
                writeln!(w, "compute {}", ops.len())?;
                for op in ops {
                    match *op {
                        LocalOp::Mul {
                            node,
                            dst,
                            lhs,
                            rhs,
                        } => writeln!(
                            w,
                            "mul {} {:x} {:x} {:x}",
                            node.0,
                            dst.to_raw(),
                            lhs.to_raw(),
                            rhs.to_raw()
                        )?,
                        LocalOp::MulAdd {
                            node,
                            dst,
                            lhs,
                            rhs,
                        } => writeln!(
                            w,
                            "muladd {} {:x} {:x} {:x}",
                            node.0,
                            dst.to_raw(),
                            lhs.to_raw(),
                            rhs.to_raw()
                        )?,
                        LocalOp::SubAssign { node, dst, src } => {
                            writeln!(w, "sub {} {:x} {:x}", node.0, dst.to_raw(), src.to_raw())?
                        }
                        LocalOp::BlockMulAdd {
                            node,
                            dim,
                            a_ns,
                            b_ns,
                            c_ns,
                        } => writeln!(
                            w,
                            "blockmuladd {} {} {} {} {}",
                            node.0, dim, a_ns, b_ns, c_ns
                        )?,
                        LocalOp::AddAssign { node, dst, src } => {
                            writeln!(w, "add {} {:x} {:x}", node.0, dst.to_raw(), src.to_raw())?
                        }
                        LocalOp::Copy { node, dst, src } => {
                            writeln!(w, "copy {} {:x} {:x}", node.0, dst.to_raw(), src.to_raw())?
                        }
                        LocalOp::Zero { node, dst } => {
                            writeln!(w, "zero {} {:x}", node.0, dst.to_raw())?
                        }
                        LocalOp::Free { node, key } => {
                            writeln!(w, "free {} {:x}", node.0, key.to_raw())?
                        }
                    }
                }
            }
        }
    }
    writeln!(w, "end")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Key, NodeId, ScheduleBuilder, Transfer};

    fn dump(schedule: &Schedule) -> String {
        let mut buf = Vec::new();
        write_schedule(schedule, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn dump_writes_one_line_per_event() {
        let mut b = ScheduleBuilder::new(4);
        b.compute(vec![LocalOp::Zero {
            node: NodeId(0),
            dst: Key::x(0, 0),
        }])
        .unwrap();
        b.round(vec![
            Transfer {
                src: NodeId(1),
                src_key: Key::a(1, 2),
                dst: NodeId(0),
                dst_key: Key::x(0, 0),
                merge: Merge::Add,
            },
            Transfer {
                src: NodeId(2),
                src_key: Key::b(2, 3),
                dst: NodeId(3),
                dst_key: Key::tmp(7, 8),
                merge: Merge::Overwrite,
            },
        ])
        .unwrap();
        let (x00, a12, b23, t78) = (
            Key::x(0, 0).to_raw(),
            Key::a(1, 2).to_raw(),
            Key::b(2, 3).to_raw(),
            Key::tmp(7, 8).to_raw(),
        );
        assert_eq!(
            dump(&b.build()),
            format!(
                "lowband-schedule v1\nn 4 capacity 1\ncompute 1\nzero 0 {x00:x}\n\
                 round 2\n1 {a12:x} 0 {x00:x} a\n2 {b23:x} 3 {t78:x} o\nend\n"
            )
        );
    }

    #[test]
    fn capacity_is_persisted() {
        let mut b = ScheduleBuilder::with_capacity(4, 3);
        b.round(vec![
            Transfer {
                src: NodeId(0),
                src_key: Key::a(0, 0),
                dst: NodeId(1),
                dst_key: Key::a(0, 0),
                merge: Merge::Overwrite,
            },
            Transfer {
                src: NodeId(0),
                src_key: Key::a(0, 0),
                dst: NodeId(2),
                dst_key: Key::a(0, 0),
                merge: Merge::Overwrite,
            },
        ])
        .unwrap();
        assert_eq!(dump(&b.build()).lines().nth(1), Some("n 4 capacity 3"));
    }
}
