"""Conference session assignment built by hand with the public data model.

A two-day conference runs talks in parallel tracks; attendees bid on talks,
talks in overlapping slots conflict, and each room has limited seats.  This
is IGEPA with a time-interval conflict function — the example builds the
instance from raw domain objects (no generator) and compares LP-packing
against the exact optimum, checking the 1/4 guarantee along the way.

Run:  python examples/conference_scheduling.py
"""

import numpy as np

from repro import (
    CosineInterest,
    Event,
    ExactILP,
    Graph,
    IGEPAInstance,
    LPPacking,
    TimeIntervalConflict,
    User,
    lp_upper_bound,
)

TOPICS = ["databases", "ml", "systems", "theory"]


def topic_vector(weights: dict[str, float]) -> list[float]:
    return [weights.get(topic, 0.0) for topic in TOPICS]


def build_conference() -> IGEPAInstance:
    # Two days x three slots x two parallel tracks; seats are scarce.
    talks = []
    talk_id = 0
    rng = np.random.default_rng(11)
    for day in range(2):
        for slot in range(3):
            start = day * 24.0 + 9.0 + slot * 2.5
            for track in range(2):
                focus = TOPICS[(slot + track + day) % len(TOPICS)]
                weights = {focus: 1.0, TOPICS[(slot + track) % len(TOPICS)]: 0.4}
                talks.append(
                    Event(
                        event_id=talk_id,
                        capacity=int(rng.integers(3, 7)),  # small rooms
                        attributes=topic_vector(weights),
                        start_time=start,
                        duration=2.0,  # overlaps within a slot, not across
                    )
                )
                talk_id += 1

    attendees = []
    for user_id in range(30):
        favourite = TOPICS[user_id % len(TOPICS)]
        second = TOPICS[(user_id + 1) % len(TOPICS)]
        profile = topic_vector({favourite: 1.0, second: 0.5})
        # Attendees bid on talks matching their profile (top 6 by cosine).
        scores = []
        for talk in talks:
            a = np.asarray(profile)
            b = talk.attributes
            scores.append(
                float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
            )
        bids = tuple(int(i) for i in np.argsort(scores)[::-1][:6])
        attendees.append(
            User(
                user_id=user_id,
                capacity=4,  # can attend at most 4 talks over the conference
                attributes=profile,
                bids=bids,
            )
        )

    # Colleagues know each other: a ring of research groups of five.
    social = Graph(nodes=[u.user_id for u in attendees])
    for user_id in range(30):
        group = user_id // 5
        for other in range(group * 5, group * 5 + 5):
            if other != user_id:
                social.add_edge(user_id, other)
        social.add_edge(user_id, (user_id + 5) % 30)  # cross-group tie

    return IGEPAInstance(
        events=talks,
        users=attendees,
        conflict=TimeIntervalConflict(),
        interest=CosineInterest(),
        social=social,
        beta=0.6,  # interest matters slightly more than networking
        name="conference",
    )


def main() -> None:
    instance = build_conference()
    print("instance:", instance)
    print("parallel-track conflicts:",
          sum(instance.conflicts(a.event_id, b.event_id)
              for i, a in enumerate(instance.events)
              for b in instance.events[i + 1:]))

    bound = lp_upper_bound(instance)
    exact = ExactILP().solve(instance)
    print(f"\nLP upper bound : {bound:.3f}")
    print(f"exact optimum  : {exact.utility:.3f} "
          f"({exact.details['nodes_explored']} MIP nodes)")

    for alpha in (0.5, 1.0):
        utilities = [
            LPPacking(alpha=alpha).solve(instance, seed=seed).utility
            for seed in range(30)
        ]
        mean = float(np.mean(utilities))
        print(
            f"LP-packing α={alpha:>3}: mean utility {mean:.3f} over 30 runs "
            f"({mean / exact.utility:.1%} of OPT; guarantee at α=1/2 is 25%)"
        )
        assert mean >= 0.25 * bound, "Theorem 2 violated!"

    # Inspect one arrangement: which talks filled up?
    result = LPPacking(alpha=1.0).solve(instance, seed=1)
    arrangement = result.arrangement
    print("\nseats filled per talk (capacity):")
    for talk in instance.events:
        filled = arrangement.attendance(talk.event_id)
        print(f"  talk {talk.event_id:>2} "
              f"[day {int(talk.start_time // 24)} "
              f"{talk.start_time % 24:04.1f}h]: {filled}/{talk.capacity}")


if __name__ == "__main__":
    main()
